#include "rt/tune/plan_store.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "rt/guard/fault_injector.hpp"
#include "rt/obs/metrics_writer.hpp"

namespace rt::tune {

namespace fs = std::filesystem;
using rt::guard::Expected;
using rt::guard::Status;
using rt::obs::JsonValue;

const StoreEntry* PlanStore::find(const TuneKey& key) const {
  for (const StoreEntry& e : entries) {
    if (e.key == key) return &e;
  }
  return nullptr;
}

void PlanStore::put(StoreEntry e) {
  for (StoreEntry& have : entries) {
    if (have.key == e.key) {
      have = std::move(e);
      return;
    }
  }
  entries.push_back(std::move(e));
}

std::string default_store_path() {
  if (const char* env = std::getenv("RT_TUNE_STORE"); env != nullptr && *env) {
    return env;
  }
  if (const char* xdg = std::getenv("XDG_CACHE_HOME");
      xdg != nullptr && *xdg) {
    return std::string(xdg) + "/rt-tune/plans.json";
  }
  if (const char* home = std::getenv("HOME"); home != nullptr && *home) {
    return std::string(home) + "/.cache/rt-tune/plans.json";
  }
  return ".rt-tune-plans.json";
}

namespace {

JsonValue tune_key_json(const TuneKey& k) {
  JsonValue o = JsonValue::object();
  o.set("kernel", k.kernel)
      .set("n", k.n)
      .set("n3", k.n3)
      .set("transform", std::string(rt::core::transform_name(k.transform)))
      .set("backend", std::string(rt::core::backend_name(k.backend)))
      .set("threads", k.threads)
      .set("simd", k.simd)
      .set("temporal", rt::core::temporal_mode_name(k.temporal))
      .set("tsteps", k.tsteps);
  return o;
}

JsonValue plan_key_json(const rt::core::PlanKey& k) {
  JsonValue o = JsonValue::object();
  o.set("transform", std::string(rt::core::transform_name(k.transform)))
      .set("cs", k.cs)
      .set("di", k.di)
      .set("dj", k.dj)
      .set("trim_i", k.trim_i)
      .set("trim_j", k.trim_j)
      .set("atd", k.atd)
      .set("halo", k.halo)
      .set("n3", k.n3)
      .set("backend", std::string(rt::core::backend_name(k.backend)))
      .set("line_elems", k.line_elems)
      .set("assoc", k.assoc);
  return o;
}

JsonValue tiling_plan_json(const rt::core::TilingPlan& p) {
  JsonValue o = JsonValue::object();
  o.set("transform", std::string(rt::core::transform_name(p.transform)))
      .set("backend", std::string(rt::core::backend_name(p.backend)))
      .set("schedule", std::string(rt::core::schedule_name(p.schedule)))
      .set("tiled", p.tiled)
      .set("ti", p.tile.ti)
      .set("tj", p.tile.tj)
      .set("dip", p.dip)
      .set("djp", p.djp);
  return o;
}

JsonValue temporal_key_json(const rt::core::TemporalKey& k) {
  JsonValue o = JsonValue::object();
  o.set("mode", rt::core::temporal_mode_name(k.mode))
      .set("cs", k.cs)
      .set("n1", k.n1)
      .set("n2", k.n2)
      .set("n3", k.n3)
      .set("tsteps", k.tsteps)
      .set("bk", k.bk)
      .set("threads", k.threads)
      .set("halo", k.halo);
  return o;
}

JsonValue temporal_plan_json(const rt::core::TemporalPlan& p) {
  JsonValue o = JsonValue::object();
  o.set("mode", rt::core::temporal_mode_name(p.mode))
      .set("tsteps", p.tsteps)
      .set("bk", p.bk)
      .set("tb", p.tb)
      .set("threads", p.threads)
      .set("team", p.team)
      .set("stages", p.stages)
      .set("occupancy", p.occupancy);
  return o;
}

/// Field-by-field reader with a first-failure reason (the kCorrupt detail).
/// Every getter fails on a missing key or a kind mismatch — durable state
/// is read strictly, never defaulted.
class Reader {
 public:
  bool failed() const { return !why_.empty(); }
  const std::string& why() const { return why_; }

  const JsonValue* obj(const JsonValue& v, const char* key) {
    if (failed()) return nullptr;
    const JsonValue* f = v.find(key);
    if (f == nullptr || !f->is_object()) {
      fail(key, "object");
      return nullptr;
    }
    return f;
  }

  long num(const JsonValue& v, const char* key) {
    const JsonValue* f = field(v, key);
    if (f == nullptr) return 0;
    if (!f->is_number()) {
      fail(key, "number");
      return 0;
    }
    return static_cast<long>(f->as_int());
  }

  double dbl(const JsonValue& v, const char* key) {
    const JsonValue* f = field(v, key);
    if (f == nullptr) return 0;
    if (!f->is_number()) {
      fail(key, "number");
      return 0;
    }
    return f->as_double();
  }

  bool flag(const JsonValue& v, const char* key) {
    const JsonValue* f = field(v, key);
    if (f == nullptr) return false;
    if (!f->is_bool()) {
      fail(key, "bool");
      return false;
    }
    return f->as_bool();
  }

  std::string str(const JsonValue& v, const char* key) {
    const JsonValue* f = field(v, key);
    if (f == nullptr) return {};
    if (!f->is_string()) {
      fail(key, "string");
      return {};
    }
    return f->as_string();
  }

  rt::core::Transform transform(const JsonValue& v, const char* key) {
    const std::string tok = str(v, key);
    rt::core::Transform t = rt::core::Transform::kOrig;
    if (!failed() && !parse_transform(tok, &t)) {
      why_ = "unknown transform token \"" + tok + "\"";
    }
    return t;
  }

  rt::core::TemporalMode temporal(const JsonValue& v, const char* key) {
    const std::string tok = str(v, key);
    rt::core::TemporalMode m = rt::core::TemporalMode::kOff;
    if (!failed() && !rt::core::parse_temporal_mode(tok, &m)) {
      why_ = "unknown temporal token \"" + tok + "\"";
    }
    return m;
  }

  rt::core::Backend backend(const JsonValue& v, const char* key) {
    const std::string tok = str(v, key);
    rt::core::Backend b = rt::core::Backend::kModel;
    if (!failed() && !rt::core::parse_backend(tok, &b)) {
      why_ = "unknown backend token \"" + tok + "\"";
    }
    return b;
  }

  rt::core::LoopSchedule schedule(const JsonValue& v, const char* key) {
    const std::string tok = str(v, key);
    rt::core::LoopSchedule s = rt::core::LoopSchedule::kFlat;
    if (!failed() && !rt::core::parse_schedule(tok, &s)) {
      why_ = "unknown schedule token \"" + tok + "\"";
    }
    return s;
  }

 private:
  const JsonValue* field(const JsonValue& v, const char* key) {
    if (failed()) return nullptr;
    const JsonValue* f = v.find(key);
    if (f == nullptr) fail(key, "present");
    return f;
  }
  void fail(const char* key, const char* want) {
    why_ = std::string("field \"") + key + "\" missing or not " + want;
  }

  std::string why_;
};

/// Why a parsed spatial entry's plan cannot be executed ("" when it can).
/// Installed entries are pinned into the PlanCache and run as-is: a zero
/// tile extent would never advance the accessor tile loops, a pad below
/// the planned extent gives strides shorter than the rows, and a recursive
/// schedule without a tile hands the oblivious kernels a 0x0 base tile.
/// An untiled plan with the tiled schedule (as older stores hold) runs flat
/// on every path and stays valid.
std::string plan_defect(const StoreEntry& e) {
  const rt::core::TilingPlan& p = e.plan;
  if (p.tiled && (p.tile.ti < 1 || p.tile.tj < 1)) {
    return "tiled plan with tile " + std::to_string(p.tile.ti) + "x" +
           std::to_string(p.tile.tj) + " (extents must be >= 1)";
  }
  if (p.dip < e.plan_key.di || p.djp < e.plan_key.dj) {
    return "plan pad " + std::to_string(p.dip) + "x" +
           std::to_string(p.djp) + " below the planned extent " +
           std::to_string(e.plan_key.di) + "x" +
           std::to_string(e.plan_key.dj);
  }
  if (!p.tiled && p.schedule == rt::core::LoopSchedule::kRecursive) {
    return "untiled plan with schedule \"" +
           std::string(rt::core::schedule_name(p.schedule)) + "\"";
  }
  return "";
}

}  // namespace

std::string store_to_json(const PlanStore& s) {
  JsonValue root = JsonValue::object();
  root.set("version", s.version).set("fingerprint", s.fingerprint);
  JsonValue entries = JsonValue::array();
  for (const StoreEntry& e : s.entries) {
    JsonValue o = JsonValue::object();
    o.set("key", tune_key_json(e.key)).set("temporal_entry", e.temporal);
    if (e.temporal) {
      o.set("temporal_key", temporal_key_json(e.temporal_key))
          .set("temporal_plan", temporal_plan_json(e.temporal_plan));
    } else {
      o.set("plan_key", plan_key_json(e.plan_key))
          .set("plan", tiling_plan_json(e.plan));
    }
    o.set("origin", e.origin)
        .set("mflops", e.mflops)
        .set("model_mflops", e.model_mflops)
        .set("tuned_at_ms", static_cast<long long>(e.tuned_at_ms));
    entries.push_back(std::move(o));
  }
  root.set("entries", std::move(entries));
  return root.dump(2) + "\n";
}

Expected<PlanStore> parse_store(const std::string& text,
                                const std::string& host_fingerprint) {
  JsonValue root;
  std::string err;
  if (!rt::obs::json_parse(text, &root, &err)) {
    return {Status::kCorrupt, "plan store JSON: " + err};
  }
  if (!root.is_object()) {
    return {Status::kCorrupt, "plan store root is not an object"};
  }

  Reader r;
  PlanStore s;
  s.version = static_cast<int>(r.num(root, "version"));
  s.fingerprint = r.str(root, "fingerprint");
  if (r.failed()) return {Status::kCorrupt, r.why()};

  if (s.version != kPlanStoreVersion) {
    return {Status::kStale, "store version " + std::to_string(s.version) +
                                " != supported " +
                                std::to_string(kPlanStoreVersion)};
  }
  if (s.fingerprint != host_fingerprint) {
    return {Status::kStale, "store fingerprint \"" + s.fingerprint +
                                "\" != host \"" + host_fingerprint + "\""};
  }

  const JsonValue* entries = root.find("entries");
  if (entries == nullptr || !entries->is_array()) {
    return {Status::kCorrupt, "field \"entries\" missing or not array"};
  }
  for (std::size_t i = 0; i < entries->size(); ++i) {
    const JsonValue& o = *entries->at(i);
    if (!o.is_object()) {
      return {Status::kCorrupt,
              "entry " + std::to_string(i) + " is not an object"};
    }
    StoreEntry e;
    const JsonValue* key = r.obj(o, "key");
    if (key != nullptr) {
      e.key.kernel = r.str(*key, "kernel");
      e.key.n = r.num(*key, "n");
      e.key.n3 = r.num(*key, "n3");
      e.key.transform = r.transform(*key, "transform");
      e.key.backend = r.backend(*key, "backend");
      e.key.threads = static_cast<int>(r.num(*key, "threads"));
      e.key.simd = r.str(*key, "simd");
      e.key.temporal = r.temporal(*key, "temporal");
      e.key.tsteps = static_cast<int>(r.num(*key, "tsteps"));
    }
    e.temporal = r.flag(o, "temporal_entry");
    if (!r.failed() && e.temporal) {
      if (const JsonValue* tk = r.obj(o, "temporal_key"); tk != nullptr) {
        e.temporal_key.mode = r.temporal(*tk, "mode");
        e.temporal_key.cs = r.num(*tk, "cs");
        e.temporal_key.n1 = r.num(*tk, "n1");
        e.temporal_key.n2 = r.num(*tk, "n2");
        e.temporal_key.n3 = r.num(*tk, "n3");
        e.temporal_key.tsteps = static_cast<int>(r.num(*tk, "tsteps"));
        e.temporal_key.bk = r.num(*tk, "bk");
        e.temporal_key.threads = static_cast<int>(r.num(*tk, "threads"));
        e.temporal_key.halo = r.num(*tk, "halo");
      }
      if (const JsonValue* tp = r.obj(o, "temporal_plan"); tp != nullptr) {
        e.temporal_plan.mode = r.temporal(*tp, "mode");
        e.temporal_plan.tsteps = static_cast<int>(r.num(*tp, "tsteps"));
        e.temporal_plan.bk = r.num(*tp, "bk");
        e.temporal_plan.tb = static_cast<int>(r.num(*tp, "tb"));
        e.temporal_plan.threads = static_cast<int>(r.num(*tp, "threads"));
        e.temporal_plan.team = static_cast<int>(r.num(*tp, "team"));
        e.temporal_plan.stages = r.num(*tp, "stages");
        e.temporal_plan.occupancy = r.dbl(*tp, "occupancy");
      }
    } else if (!r.failed()) {
      if (const JsonValue* pk = r.obj(o, "plan_key"); pk != nullptr) {
        e.plan_key.transform = r.transform(*pk, "transform");
        e.plan_key.cs = r.num(*pk, "cs");
        e.plan_key.di = r.num(*pk, "di");
        e.plan_key.dj = r.num(*pk, "dj");
        e.plan_key.trim_i = r.num(*pk, "trim_i");
        e.plan_key.trim_j = r.num(*pk, "trim_j");
        e.plan_key.atd = static_cast<int>(r.num(*pk, "atd"));
        e.plan_key.halo = r.num(*pk, "halo");
        e.plan_key.n3 = r.num(*pk, "n3");
        e.plan_key.backend = r.backend(*pk, "backend");
        e.plan_key.line_elems = r.num(*pk, "line_elems");
        e.plan_key.assoc = r.num(*pk, "assoc");
      }
      if (const JsonValue* p = r.obj(o, "plan"); p != nullptr) {
        e.plan.transform = r.transform(*p, "transform");
        e.plan.backend = r.backend(*p, "backend");
        e.plan.schedule = r.schedule(*p, "schedule");
        e.plan.tiled = r.flag(*p, "tiled");
        e.plan.tile.ti = r.num(*p, "ti");
        e.plan.tile.tj = r.num(*p, "tj");
        e.plan.dip = r.num(*p, "dip");
        e.plan.djp = r.num(*p, "djp");
      }
    }
    e.origin = r.str(o, "origin");
    e.mflops = r.dbl(o, "mflops");
    e.model_mflops = r.dbl(o, "model_mflops");
    e.tuned_at_ms = r.num(o, "tuned_at_ms");
    if (r.failed()) {
      return {Status::kCorrupt,
              "entry " + std::to_string(i) + ": " + r.why()};
    }
    if (!e.temporal) {
      if (const std::string why = plan_defect(e); !why.empty()) {
        return {Status::kCorrupt, "entry " + std::to_string(i) + ": " + why};
      }
    }
    s.entries.push_back(std::move(e));
  }
  return s;
}

std::string store_bak_path(const std::string& path) { return path + ".bak"; }

namespace {

Expected<PlanStore> load_store_one(const std::string& path,
                                   const std::string& host_fingerprint) {
  std::ifstream f(path);
  if (!f) {
    return {Status::kInvalidArgument, "plan store not readable: " + path};
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return parse_store(ss.str(), host_fingerprint);
}

}  // namespace

Expected<PlanStore> load_store(const std::string& path,
                               const std::string& host_fingerprint,
                               LoadInfo* info) {
  if (info) *info = LoadInfo{};
  Expected<PlanStore> primary = load_store_one(path, host_fingerprint);
  if (info) {
    info->primary_status = primary.status();
    info->primary_detail = primary.detail();
  }
  if (primary.ok()) return primary;

  // Fallback policy (see header): a torn primary is kCorrupt; a primary
  // missing while the .bak exists means a crash landed between
  // save_store's two renames.  Both are recoverable from the last-good
  // copy.  kStale is not: the .bak cannot be newer than the primary.
  const std::string bak = store_bak_path(path);
  const bool try_bak =
      primary.status() == Status::kCorrupt ||
      (primary.status() == Status::kInvalidArgument && fs::exists(bak));
  if (!try_bak) return primary;

  Expected<PlanStore> fallback = load_store_one(bak, host_fingerprint);
  if (!fallback.ok()) return primary;  // the original rejection is the story
  if (info) info->recovered_from_bak = true;
  return fallback;
}

Status save_store(const PlanStore& s, const std::string& path,
                  std::string* detail) {
  std::error_code ec;
  const fs::path p(path);
  if (p.has_parent_path()) {
    fs::create_directories(p.parent_path(), ec);  // best-effort; open decides
  }

  // Durability order: (1) all bytes into a private temp file, (2) fsync the
  // temp so the *data* is on disk before any name points at it, (3) demote
  // the current store to .bak, (4) atomically rename the temp over the
  // primary.  A crash — even kill -9 — at any instant leaves either the
  // old bytes (steps 1–3) or the new bytes (after 4) reachable via
  // path-or-.bak; never a torn file under the primary name.  The temp name
  // embeds the pid so concurrent savers from forked processes cannot
  // clobber each other's half-written temp.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    if (detail) {
      *detail = "open " + tmp + ": " + std::strerror(errno);
    }
    return Status::kInvalidArgument;
  }
  std::string why;
  if (rt::obs::write_all_fd(fd, store_to_json(s), &why) != Status::kOk) {
    ::close(fd);
    ::unlink(tmp.c_str());
    if (detail) *detail = "write " + tmp + ": " + why;
    return Status::kIoError;
  }
  const bool fsync_injected =
      rt::guard::FaultInjector::armed(rt::guard::FaultKind::kFsyncFail) &&
      rt::guard::FaultInjector::instance().should_fail(
          rt::guard::FaultKind::kFsyncFail);
  if (fsync_injected || ::fsync(fd) < 0) {
    // The bytes may still be only in the page cache: renaming now could
    // persist a name pointing at vanished data.  Abort with the previous
    // store (and its .bak) untouched.
    ::close(fd);
    ::unlink(tmp.c_str());
    if (detail) {
      *detail = fsync_injected
                    ? "injected fsyncfail: durability barrier failed"
                    : "fsync " + tmp + ": " + std::strerror(errno);
    }
    return Status::kIoError;
  }
  if (::close(fd) < 0) {
    ::unlink(tmp.c_str());
    if (detail) *detail = "close " + tmp + ": " + std::strerror(errno);
    return Status::kIoError;
  }

  if (fs::exists(p)) {
    fs::rename(p, fs::path(store_bak_path(path)), ec);
    if (ec) {
      ::unlink(tmp.c_str());
      if (detail) *detail = "rename to .bak: " + ec.message();
      return Status::kIoError;
    }
  }
  fs::rename(fs::path(tmp), p, ec);
  if (ec) {
    // The primary name may now be vacant (demoted to .bak above) — that is
    // exactly the crash window load_store's .bak fallback recovers from.
    ::unlink(tmp.c_str());
    if (detail) *detail = "rename into place: " + ec.message();
    return Status::kIoError;
  }

  // Make the renames themselves durable (directory entry).  Best-effort:
  // the data is already safe under *a* recoverable name either way.
  if (p.has_parent_path()) {
    const int dfd = ::open(p.parent_path().c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
      (void)!::fsync(dfd);
      ::close(dfd);
    }
  }
  return Status::kOk;
}

std::size_t install(const PlanStore& s, rt::core::PlanCache& cache) {
  std::size_t installed = 0;
  for (const StoreEntry& e : s.entries) {
    const std::string detail = "autotuned(" + e.origin + ")";
    if (e.temporal) {
      rt::core::TemporalReport rep;
      rep.plan = e.temporal_plan;
      rep.status = rt::guard::Status::kOk;
      rep.detail = detail;
      cache.pin_temporal(e.temporal_key, rep);
    } else {
      rt::core::PlanReport rep;
      rep.plan = e.plan;
      rep.status = rt::guard::Status::kOk;
      rep.detail = detail;
      cache.pin(e.plan_key, rep);
    }
    ++installed;
  }
  return installed;
}

}  // namespace rt::tune
