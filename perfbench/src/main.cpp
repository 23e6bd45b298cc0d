// perfbench: the repository benchmark.  One run measures one workload for
// --seconds seconds and prints, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1).  Exit status 1 on any
// checksum or residual mismatch, 2 on bad usage.
//
// A traced run (--trace 1) first runs the STREAM-triad probe, then the
// workload untraced and traced (their difference is the tracing overhead),
// then a short traced slice of each other workload so that every per-layer
// metric has a value; spans are written to --trace-out at the end.
//
//   perfbench --workload serve-small|serve-large|mgrid --seed N
//             --seconds S --trace 0|1 [--trace-out FILE] [--git-sha SHA]
//             [--dump-schedule] [--corrupt-reference]

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "schedule.hpp"
#include "workloads.hpp"

namespace {

using pb::JsonValue;

int usage(const std::string& msg) {
  std::cerr << "perfbench: " << msg << "\n"
            << "usage: perfbench --workload serve-small|serve-large|mgrid "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--git-sha SHA] [--dump-schedule] "
               "[--corrupt-reference]\n";
  return 2;
}

JsonValue metrics_json(const pb::Metrics& m) {
  JsonValue out = JsonValue::object();
  for (const auto& it : m.items()) {
    JsonValue v = JsonValue::object();
    v.set("value", it.value);
    v.set("unit", it.unit);
    out.set(it.name, std::move(v));
  }
  return out;
}

void merge_outcome(const pb::RunResult& from, pb::RunResult* into) {
  into->attempted += from.attempted;
  into->failed += from.failed;
  for (const std::string& e : from.errors) into->mismatch(e);
  if (!from.correct) into->correct = false;
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunConfig cfg;
  std::string trace_out, git_sha = "unknown";
  bool dump_schedule = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--dump-schedule") {
      dump_schedule = true;
    } else if (a == "--corrupt-reference") {
      cfg.corrupt_reference = true;
    } else if ((v = next()) == nullptr) {
      return usage("missing value for " + a);
    } else if (a == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::atof(v);
    } else if (a == "--trace") {
      cfg.trace = std::string(v) == "1";
    } else if (a == "--trace-out") {
      trace_out = v;
    } else if (a == "--git-sha") {
      git_sha = v;
    } else {
      return usage("unknown flag " + a);
    }
  }
  const auto& names = pb::workload_names();
  if (!have_workload ||
      std::find(names.begin(), names.end(), cfg.workload) == names.end()) {
    return usage("unknown or missing --workload");
  }
  if (!(cfg.seconds > 0)) return usage("--seconds must be positive");
  cfg.nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  if (dump_schedule) {
    if (cfg.workload == "serve-small") {
      std::cout << pb::dump(pb::small_schedule(cfg.seed, pb::kSmallRate,
                                               cfg.seconds));
    } else if (cfg.workload == "serve-large") {
      std::cout << pb::dump(pb::large_schedule(cfg.seed, 8));
    } else {
      std::cout << "mgrid lt=7 seed=" << cfg.seed << "\n";
    }
    return 0;
  }

  pb::Trace trace(cfg.trace);
  pb::RunResult res;
  JsonValue report = JsonValue::object();
  report.set("workload", cfg.workload);
  report.set("seed", static_cast<long long>(cfg.seed));
  report.set("seconds", cfg.seconds);
  report.set("trace", cfg.trace);
  report.set("git_sha", git_sha);
  report.set("host", pb::provenance(cfg.nproc));

  const pb::Metrics* out = nullptr;
  if (!cfg.trace) {
    pb::run_workload(cfg, nullptr, &res);
    out = &res.e2e;
    report.set("ran", res.ran);
    report.set("notes", res.e2e.notes());
  } else {
    JsonValue triad_note;
    cfg.triad_gbs = pb::triad_gbs(cfg.nproc, 3, &trace, &triad_note);
    pb::RunResult base;
    pb::run_workload(cfg, nullptr, &base);
    pb::run_workload(cfg, &trace, &res);
    merge_outcome(base, &res);
    res.layer.add("mem.triad_gbs", "GB/s", cfg.triad_gbs);
    const double b = base.e2e.get("lat_p50_ms"), t = res.e2e.get("lat_p50_ms");
    res.layer.add("trace.overhead_pct", "%", b > 0 ? 100.0 * (t - b) / b : 0);
    JsonValue notes = JsonValue::object();
    notes.set("triad", triad_note);
    notes.set("overhead", "lat_p50_ms traced " + JsonValue::format_double(t) +
                              " ms vs untraced " + JsonValue::format_double(b) +
                              " ms");
    notes.set(cfg.workload, res.layer.notes());
    JsonValue ran = JsonValue::object();
    ran.set(cfg.workload, res.ran);
    // Layers this workload does not reach come from a short traced slice of
    // the workload that does.
    for (const std::string& w : names) {
      if (w == cfg.workload) continue;
      pb::RunConfig slice = cfg;
      slice.workload = w;
      slice.seconds = std::max(3.0, cfg.seconds / 5);
      pb::RunResult r;
      pb::run_workload(slice, &trace, &r);
      merge_outcome(r, &res);
      for (const auto& it : r.layer.items()) {
        if (!res.layer.has(it.name)) res.layer.add(it.name, it.unit, it.value);
      }
      notes.set(w + " (slice)", r.layer.notes());
      ran.set(w + " (slice)", r.ran);
    }
    report.set("ran", ran);
    report.set("notes", notes);
    report.set("spans", static_cast<long long>(trace.size()));
    if (!trace_out.empty()) {
      JsonValue doc = JsonValue::object();
      doc.set("workload", cfg.workload);
      doc.set("seed", static_cast<long long>(cfg.seed));
      doc.set("spans", trace.to_json());
      std::ofstream f(trace_out);
      f << doc.dump() << "\n";
      report.set("trace_file", trace_out);
    }
    out = &res.layer;
  }

  JsonValue errors = JsonValue::array();
  for (const std::string& e : res.errors) errors.push_back(e);
  report.set("errors", errors);
  for (const auto& it : out->items()) {
    std::printf("%-34s %14.6g %s\n", it.name.c_str(), it.value,
                it.unit.c_str());
  }
  std::printf("attempted %ld failed %ld correct %s\n", res.attempted,
              res.failed, res.correct ? "true" : "false");
  JsonValue rep = JsonValue::object();
  rep.set("report", report);
  std::printf("%s\n", rep.dump().c_str());

  JsonValue last = JsonValue::object();
  last.set("correct", res.correct);
  last.set("attempted", static_cast<long long>(res.attempted));
  last.set("failed", static_cast<long long>(res.failed));
  last.set("metrics", metrics_json(*out));
  std::printf("%s\n", last.dump().c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}
