#include "schedule.hpp"

#include <cmath>
#include <cstdio>

#include "common.hpp"

namespace pb {

namespace {
constexpr Kernel kKernels[] = {Kernel::kJacobi, Kernel::kRedBlack,
                               Kernel::kResid};
}  // namespace

std::vector<SmallOp> small_schedule(std::uint64_t seed, double rate,
                                    double seconds) {
  Rng rng(seed);
  // Solve parameters come from shuffled blocks that hold every combination
  // of kernel x n x tsteps x transform x deadline slot (1 of 4 carries a
  // deadline) exactly once: every run offers the same mix, and only the
  // arrival process and the order vary with the seed.
  std::vector<SmallOp> block;
  std::size_t next = 0;
  auto refill = [&] {
    block.clear();
    for (Kernel k : kKernels) {
      for (long n : {32L, 48L, 64L}) {
        for (int tsteps : {2, 3, 4}) {
          for (bool gcdpad : {true, false}) {
            for (int slot = 0; slot < 4; ++slot) {
              SmallOp op;
              op.kernel = k;
              op.n = n;
              op.tsteps = tsteps;
              op.gcdpad = gcdpad;
              op.deadline_ms = slot == 0 ? kSmallDeadlineMs : 0;
              block.push_back(op);
            }
          }
        }
      }
    }
    for (long i = static_cast<long>(block.size()) - 1; i > 0; --i) {
      std::swap(block[static_cast<std::size_t>(i)],
                block[static_cast<std::size_t>(rng.below(i + 1))]);
    }
    next = 0;
  };
  std::vector<SmallOp> ops;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    SmallOp op;
    if (rng.below(20) != 0) {
      if (next == block.size()) refill();
      op = block[next++];
    } else {
      op.stats = true;
    }
    op.t_s = t;
    ops.push_back(op);
  }
  return ops;
}

std::vector<LargeCell> large_schedule(std::uint64_t seed, int rounds) {
  Rng rng(seed);
  std::vector<LargeCell> cells;
  for (int r = 0; r < rounds; ++r) {
    std::vector<LargeCell> round;
    for (Kernel k : kKernels) {
      for (long n : kLargeSizes) round.push_back({k, n});
    }
    for (long i = static_cast<long>(round.size()) - 1; i > 0; --i) {
      std::swap(round[static_cast<std::size_t>(i)],
                round[static_cast<std::size_t>(rng.below(i + 1))]);
    }
    cells.insert(cells.end(), round.begin(), round.end());
  }
  return cells;
}

std::string dump(const std::vector<SmallOp>& ops) {
  std::string s;
  char buf[128];
  for (const SmallOp& op : ops) {
    if (op.stats) {
      std::snprintf(buf, sizeof buf, "%.9f stats\n", op.t_s);
    } else {
      std::snprintf(buf, sizeof buf, "%.9f solve %s %ld %d %s %d\n", op.t_s,
                    kernel_name(op.kernel), op.n, op.tsteps,
                    op.gcdpad ? "gcdpad" : "orig", op.deadline_ms);
    }
    s += buf;
  }
  return s;
}

std::string dump(const std::vector<LargeCell>& cells) {
  std::string s;
  for (const LargeCell& c : cells) {
    s += kernel_name(c.kernel);
    s += ' ';
    s += std::to_string(c.n);
    s += '\n';
  }
  return s;
}

}  // namespace pb
