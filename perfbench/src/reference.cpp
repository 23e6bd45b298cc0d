#include "reference.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

namespace pb {

namespace {

/// The server's deterministic grid init: array number a gets scale
/// 1 / (1 + a) times a linear ramp.
double init_value(double scale, long i, long j, long k) {
  return scale * (0.001 * static_cast<double>(i) +
                  0.002 * static_cast<double>(j) +
                  0.003 * static_cast<double>(k));
}

/// One pipeline stage: yields the planes k = 0 .. n-1 of its field in
/// order, keeping the last three (all a downstream stencil stage needs).
class Stage {
 public:
  explicit Stage(long n) : n_(n) {
    for (auto& p : ring_) p.assign(static_cast<std::size_t>(n * n), 0.0);
  }
  virtual ~Stage() = default;

  const double* plane(long k) {
    while (produced_ <= k) {
      produce(produced_, ring_[static_cast<std::size_t>(produced_ % 3)].data());
      ++produced_;
    }
    return ring_[static_cast<std::size_t>(k % 3)].data();
  }

 protected:
  virtual void produce(long k, double* out) = 0;
  long n_;

 private:
  std::vector<double> ring_[3];
  long produced_ = 0;
};

class InitStage : public Stage {
 public:
  InitStage(long n, double scale) : Stage(n), scale_(scale) {}

 protected:
  void produce(long k, double* out) override {
    for (long j = 0; j < n_; ++j) {
      for (long i = 0; i < n_; ++i) {
        out[i + n_ * j] = init_value(scale_, i, j, k);
      }
    }
  }

 private:
  double scale_;
};

/// One JACOBI step a = c * (6 neighbours of b), restricted to the interior;
/// boundary points keep the destination array's init value (scale bscale).
class JacobiStage : public Stage {
 public:
  JacobiStage(long n, Stage* in, double bscale)
      : Stage(n), in_(in), bscale_(bscale) {}

 protected:
  void produce(long k, double* out) override {
    const long n = n_;
    for (long j = 0; j < n; ++j) {
      for (long i = 0; i < n; ++i) {
        out[i + n * j] = init_value(bscale_, i, j, k);
      }
    }
    if (k == 0 || k == n - 1) return;
    const double* hi = in_->plane(k + 1);
    const double* mid = in_->plane(k);
    const double* lo = in_->plane(k - 1);
    const double c = 1.0 / 6.0;
    for (long j = 1; j < n - 1; ++j) {
      for (long i = 1; i < n - 1; ++i) {
        const long p = i + n * j;
        out[p] = c * (mid[p - 1] + mid[p + 1] + mid[p - n] + mid[p + n] +
                      lo[p] + hi[p]);
      }
    }
  }

 private:
  Stage* in_;
  double bscale_;
};

/// One colour of a red-black sweep: points with (i+j+k) % 2 == parity are
/// relaxed from their neighbours, which all have the other colour and so
/// are unchanged during this half-sweep; everything else is copied.
class RedBlackStage : public Stage {
 public:
  RedBlackStage(long n, Stage* in, long parity)
      : Stage(n), in_(in), parity_(parity) {}

 protected:
  void produce(long k, double* out) override {
    const long n = n_;
    if (k == 0 || k == n - 1) {
      const double* mid = in_->plane(k);
      std::copy(mid, mid + n * n, out);
      return;
    }
    const double* hi = in_->plane(k + 1);
    const double* mid = in_->plane(k);
    const double* lo = in_->plane(k - 1);
    std::copy(mid, mid + n * n, out);
    const double c1 = 0.4, c2 = 0.1;
    for (long j = 1; j < n - 1; ++j) {
      for (long i = 1 + (((1 + j + k) ^ parity_) & 1); i < n - 1; i += 2) {
        const long p = i + n * j;
        out[p] = c1 * mid[p] + c2 * (mid[p - 1] + mid[p - n] + mid[p + 1] +
                                     mid[p + n] + lo[p] + hi[p]);
      }
    }
  }

 private:
  Stage* in_;
  long parity_;
};

/// r = v - A u with the NAS-MG 27-point operator; u has scale 1/3, v 1/2,
/// and r's boundary keeps its own init (scale 1).
class ResidStage : public Stage {
 public:
  ResidStage(long n, Stage* u) : Stage(n), u_(u) {}

 protected:
  void produce(long k, double* out) override {
    const long n = n_;
    for (long j = 0; j < n; ++j) {
      for (long i = 0; i < n; ++i) out[i + n * j] = init_value(1.0, i, j, k);
    }
    if (k == 0 || k == n - 1) return;
    const double* hi = u_->plane(k + 1);
    const double* mid = u_->plane(k);
    const double* lo = u_->plane(k - 1);
    const double a0 = -8.0 / 3.0, a1 = 0.0, a2 = 1.0 / 6.0, a3 = 1.0 / 12.0;
    for (long j = 1; j < n - 1; ++j) {
      for (long i = 1; i < n - 1; ++i) {
        const long p = i + n * j;
        const double s1 = mid[p - 1] + mid[p + 1] + mid[p - n] + mid[p + n] +
                          lo[p] + hi[p];
        const double s2 = mid[p - 1 - n] + mid[p + 1 - n] + mid[p - 1 + n] +
                          mid[p + 1 + n] + lo[p - n] + lo[p + n] + hi[p - n] +
                          hi[p + n] + lo[p - 1] + hi[p - 1] + lo[p + 1] +
                          hi[p + 1];
        const double s3 = lo[p - 1 - n] + lo[p + 1 - n] + lo[p - 1 + n] +
                          lo[p + 1 + n] + hi[p - 1 - n] + hi[p + 1 - n] +
                          hi[p - 1 + n] + hi[p + 1 + n];
        out[p] = init_value(0.5, i, j, k) - a0 * mid[p] - a1 * s1 - a2 * s2 -
                 a3 * s3;
      }
    }
  }

 private:
  Stage* u_;
};

/// Analytic flops per interior point per sweep.
double flops_per_point(Kernel k) {
  switch (k) {
    case Kernel::kJacobi:
      return 6;
    case Kernel::kRedBlack:
      return 8;
    case Kernel::kResid:
      return 31;
  }
  return 0;
}

/// FNV-1a 64-bit over raw bytes (the wire checksum's hash).
std::uint64_t fnv1a64(const void* data, std::size_t bytes, std::uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::kJacobi:
      return "JACOBI";
    case Kernel::kRedBlack:
      return "REDBLACK";
    case Kernel::kResid:
      return "RESID";
  }
  return "?";
}

double solve_flops(Kernel k, long n, int tsteps) {
  const double interior = static_cast<double>(n - 2);
  return flops_per_point(k) * interior * interior * interior * tsteps;
}

double solve_bytes(Kernel k, long n, int tsteps) {
  // Array passes: init writes every array once, the checksum reads one.
  // JACOBI step: read b + write a, then copy a -> b (read a + write b).
  // REDBLACK step: two half-sweeps, each reads and writes a.
  // RESID step: read u and v, write r.
  double passes = 0;
  switch (k) {
    case Kernel::kJacobi:
      passes = 2 + 4.0 * tsteps + 1;
      break;
    case Kernel::kRedBlack:
      passes = 1 + 4.0 * tsteps + 1;
      break;
    case Kernel::kResid:
      passes = 3 + 3.0 * tsteps + 1;
      break;
  }
  const double cells = static_cast<double>(n) * n * n;
  return passes * cells * sizeof(double);
}

std::string reference_checksum(Kernel kernel, long n, int tsteps) {
  std::vector<std::unique_ptr<Stage>> stages;
  switch (kernel) {
    case Kernel::kJacobi:
      stages.push_back(std::make_unique<InitStage>(n, 0.5));
      for (int t = 0; t < tsteps; ++t) {
        const double bscale = t + 1 == tsteps ? 1.0 : 0.5;
        stages.push_back(
            std::make_unique<JacobiStage>(n, stages.back().get(), bscale));
      }
      break;
    case Kernel::kRedBlack:
      stages.push_back(std::make_unique<InitStage>(n, 1.0));
      for (int t = 0; t < tsteps; ++t) {
        for (long parity = 0; parity < 2; ++parity) {
          stages.push_back(
              std::make_unique<RedBlackStage>(n, stages.back().get(), parity));
        }
      }
      break;
    case Kernel::kResid:
      stages.push_back(std::make_unique<InitStage>(n, 1.0 / 3.0));
      stages.push_back(std::make_unique<ResidStage>(n, stages.back().get()));
      break;
  }
  std::uint64_t h = 14695981039346656037ull;
  for (long k = 0; k < n; ++k) {
    h = fnv1a64(stages.back()->plane(k),
                static_cast<std::size_t>(n * n) * sizeof(double), h);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace pb
