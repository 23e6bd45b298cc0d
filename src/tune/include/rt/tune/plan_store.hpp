#pragma once
// Durable plan store: measured winners persisted as versioned JSON, keyed
// by the host's cache-topology fingerprint (rt::core::cache_topology).  A
// store is only *served* on the hierarchy it was measured on — loading one
// written by a different schema version or a different host degrades to the
// model plan with a typed reason (kStale), and a truncated or hand-mangled
// file degrades the same way with kCorrupt.  Neither ever crashes a bench.
//
// Durability contract: parsing is strict (rt::obs::json_parse) and
// all-or-nothing — one malformed entry rejects the whole store, because a
// half-trusted store could silently serve a plan for the wrong shape.

#include <cstdint>
#include <string>
#include <vector>

#include "rt/core/plan.hpp"
#include "rt/core/plan_cache.hpp"
#include "rt/core/temporal.hpp"
#include "rt/guard/status.hpp"
#include "rt/tune/tune.hpp"

namespace rt::tune {

/// Bumped whenever the serialized schema changes shape; a mismatch is
/// kStale (regenerate by re-tuning), never reinterpreted.  v2: keys and
/// plans carry the planner backend id (plus the geometry fields the
/// backend reads, and the plan's loop schedule) — pre-backend v1 stores
/// load as kStale, so a foreign backend's plan is never misapplied.
inline constexpr int kPlanStoreVersion = 2;

/// One persisted winner: the human-readable TuneKey it answers, the exact
/// PlanCache key to pin it under, the winning plan, and the calibration
/// evidence (winner vs model throughput, when it was measured).
struct StoreEntry {
  TuneKey key;
  bool temporal = false;  ///< which (key, plan) pair below is meaningful

  rt::core::PlanKey plan_key{};       ///< spatial entries
  rt::core::TilingPlan plan{};
  rt::core::TemporalKey temporal_key{};  ///< temporal entries
  rt::core::TemporalPlan temporal_plan{};

  std::string origin;       ///< candidate label that won ("tile*2", ...)
  double mflops = 0;        ///< winner's measured throughput
  double model_mflops = 0;  ///< model plan's throughput in the same sweep
  std::int64_t tuned_at_ms = 0;  ///< wall-clock ms since epoch at tuning
};

struct PlanStore {
  int version = kPlanStoreVersion;
  std::string fingerprint;  ///< rt::core::CacheTopology::fingerprint()
  std::vector<StoreEntry> entries;

  const StoreEntry* find(const TuneKey& key) const;
  /// Insert or replace the entry for e.key (one winner per key).
  void put(StoreEntry e);
};

/// Resolved default location: $RT_TUNE_STORE if set, else
/// $XDG_CACHE_HOME/rt-tune/plans.json, else ~/.cache/rt-tune/plans.json
/// (cwd-relative ".rt-tune-plans.json" when HOME is unset).
std::string default_store_path();

/// Serialize (pretty-printed JSON, trailing newline — diffable).
std::string store_to_json(const PlanStore& s);

/// Parse + validate @p text against @p host_fingerprint.
///   kCorrupt          JSON parse failure, a missing/mistyped field, or a
///                     spatial plan that cannot run: tiled with a tile
///                     extent < 1, a pad (dip/djp) below the key's di/dj,
///                     or a recursive schedule on an untiled plan
///   kStale            parsed fine, but version != kPlanStoreVersion or
///                     fingerprint != host_fingerprint
/// The detail line carries the parser reason / the mismatching values.
rt::guard::Expected<PlanStore> parse_store(const std::string& text,
                                           const std::string& host_fingerprint);

/// `path + ".bak"`: where save_store keeps the previous last-good store.
std::string store_bak_path(const std::string& path);

/// How a load_store call actually obtained its result — the success path
/// of Expected<PlanStore> has no detail channel, and "we served the .bak"
/// is a fact operators need to see.
struct LoadInfo {
  bool recovered_from_bak = false;  ///< primary bad, .bak served instead
  rt::guard::Status primary_status = rt::guard::Status::kOk;
  std::string primary_detail;  ///< why the primary was rejected
};

/// Read @p path and parse_store it.  A missing/unreadable file is
/// kInvalidArgument (distinct from kCorrupt: nothing was persisted there).
/// Crash recovery: when the primary is kCorrupt (torn write) — or missing
/// while `path.bak` exists (a crash between save_store's two renames) —
/// the `.bak` written by save_store is parsed instead; success then sets
/// @p info->recovered_from_bak with the primary's typed rejection.  kStale
/// never falls back: the .bak is the same host/version or older.
rt::guard::Expected<PlanStore> load_store(const std::string& path,
                                          const std::string& host_fingerprint,
                                          LoadInfo* info = nullptr);

/// Write store_to_json(s) to @p path, creating parent directories.
/// Crash-safe: the bytes land in a private temp file first, are fsync'd,
/// and only then atomically renamed over @p path — a crash (even kill -9)
/// at any instant leaves either the old store or the new one, never a torn
/// file.  The previous store is kept as `path.bak` (last-good fallback for
/// load_store).  Returns kOk, kInvalidArgument (unwritable path), or
/// kIoError (write/fsync/rename failed — @p detail says which; the
/// previous store, if any, is untouched).
rt::guard::Status save_store(const PlanStore& s, const std::string& path,
                             std::string* detail = nullptr);

/// Pin every entry into @p cache (PlanCache serves pinned entries ahead of
/// the model search).  Returns the number of entries installed.  The pinned
/// report carries status kOk and a detail line naming the tuned origin.
std::size_t install(const PlanStore& s, rt::core::PlanCache& cache);

}  // namespace rt::tune
