// The served checksum against its definition.  checksum_region (and the
// byte-stream entry detail::fnv1a64_dispatched) must equal the byte-serial
// fnv1a64 bit for bit on every stream shape: every length up to two tiles
// plus a ragged block, unaligned starts, padded arrays from real planner
// pads, and pools of 1-4 threads.  Each case runs on the fast path where
// the host has one and on the serial fallback forced through the test
// hook, so the fallback is covered on every host.  The seam self-check
// must never fire, and the two identities the fast path rests on are
// checked directly against serial hashes.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "rt/array/array3d.hpp"
#include "rt/core/plan.hpp"
#include "rt/kernels/kernel_info.hpp"
#include "rt/par/thread_pool.hpp"
#include "rt/serve/protocol.hpp"

namespace rt::serve {
namespace {

using rt::array::Array3D;
using rt::array::Dims3;

constexpr std::uint64_t kBasis = 14695981039346656037ull;
constexpr std::uint64_t kPrime = 1099511628211ull;
constexpr std::size_t kTileBytes = 8192;  ///< the fast path's tile

/// Forces the serial fallback for one scope.
class SerialScope {
 public:
  explicit SerialScope(bool on) { detail::force_serial_checksum(on); }
  ~SerialScope() { detail::force_serial_checksum(false); }
  SerialScope(const SerialScope&) = delete;
  SerialScope& operator=(const SerialScope&) = delete;
};

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<unsigned char> v(n);
  for (unsigned char& c : v) c = static_cast<unsigned char>(rng());
  return v;
}

/// @p src copied to a start whose address is @p offset past a 64-byte
/// boundary (the storage keeps it alive).
const unsigned char* place(const std::vector<unsigned char>& src,
                           std::size_t offset,
                           std::vector<unsigned char>* storage) {
  storage->assign(src.size() + 128, 0);
  const auto addr = reinterpret_cast<std::uintptr_t>(storage->data());
  unsigned char* p = storage->data() + ((64 - addr % 64) % 64) + offset;
  std::copy(src.begin(), src.end(), p);
  return p;
}

/// Byte-serial FNV-1a over the logical columns: the oracle for arrays.
std::uint64_t oracle(const Array3D<double>& a) {
  std::uint64_t h = kBasis;
  for (long k = 0; k < a.n3(); ++k) {
    for (long j = 0; j < a.n2(); ++j) {
      h = fnv1a64(&a(0, j, k), static_cast<std::size_t>(a.n1()) * 8, h);
    }
  }
  return h;
}

std::uint64_t pow_prime(std::size_t e) {
  std::uint64_t r = 1;
  for (std::size_t i = 0; i < e; ++i) r *= kPrime;
  return r;
}

TEST(Checksum, PathNameFollowsTheHookAndTheHost) {
#if defined(__x86_64__) || defined(__i386__)
  const bool fast = __builtin_cpu_supports("avx512f") &&
                    __builtin_cpu_supports("avx512bw") &&
                    __builtin_cpu_supports("pclmul");
#else
  const bool fast = false;
#endif
  EXPECT_STREQ(checksum_path_name(), fast ? "avx512" : "serial");
  {
    SerialScope serial(true);
    EXPECT_STREQ(checksum_path_name(), "serial");
  }
  EXPECT_STREQ(checksum_path_name(), fast ? "avx512" : "serial");
}

TEST(Checksum, EveryLengthUpToTwoTilesAndARaggedBlock) {
  // Every length 0 .. 2 tiles + 63 bytes; the start walks through all 64
  // offsets from a cache-line boundary as the length grows.
  const std::size_t max_len = 2 * kTileBytes + 63;
  const std::vector<unsigned char> src = random_bytes(max_len, 1);
  // ref[len] = fnv1a64 of the first len bytes, built incrementally.
  std::vector<std::uint64_t> ref(max_len + 1, kBasis);
  for (std::size_t i = 0; i < max_len; ++i) {
    ref[i + 1] = fnv1a64(&src[i], 1, ref[i]);
  }
  std::vector<std::vector<unsigned char>> storage(64);
  std::vector<const unsigned char*> at(64);
  for (std::size_t o = 0; o < 64; ++o) at[o] = place(src, o, &storage[o]);

  for (const bool serial : {false, true}) {
    SerialScope scope(serial);
    long bad = 0;
    for (std::size_t len = 0; len <= max_len; ++len) {
      const std::uint64_t got =
          detail::fnv1a64_dispatched(at[len % 64], len, nullptr);
      if (got != ref[len] && ++bad <= 5) {
        ADD_FAILURE() << "len " << len << " offset " << len % 64
                      << (serial ? " (serial)" : " (fast)");
      }
    }
    EXPECT_EQ(bad, 0);
  }
  EXPECT_EQ(detail::checksum_seam_faults(), 0u);
}

TEST(Checksum, PooledStreamsAcrossThreadCountsAndRaggedTails) {
  // Lengths on both sides of the pooled path's threshold (32 full tiles),
  // with ragged tails, at two start offsets.
  const std::size_t lens[] = {32 * kTileBytes - 1, 32 * kTileBytes,
                              32 * kTileBytes + 1, 45 * kTileBytes + 4093,
                              97 * kTileBytes + 8191, 130 * kTileBytes + 64};
  const std::vector<unsigned char> src =
      random_bytes(130 * kTileBytes + 64, 2);
  std::vector<unsigned char> storage;
  for (const std::size_t offset : {std::size_t{0}, std::size_t{37}}) {
    const unsigned char* p = place(src, offset, &storage);
    for (const std::size_t len : lens) {
      const std::uint64_t want = fnv1a64(p, len);
      for (int threads = 1; threads <= 4; ++threads) {
        rt::par::ThreadPool pool(threads);
        for (const bool serial : {false, true}) {
          SerialScope scope(serial);
          EXPECT_EQ(detail::fnv1a64_dispatched(p, len, &pool), want)
              << "len " << len << " offset " << offset << " threads "
              << threads << (serial ? " (serial)" : " (fast)");
        }
      }
    }
  }
  EXPECT_EQ(detail::checksum_seam_faults(), 0u);
}

TEST(Checksum, PaddedArraysFromRealPlansMatchTheColumnOracle) {
  const rt::core::StencilSpec& spec =
      rt::kernels::kernel_info(rt::kernels::KernelId::kJacobi).spec;
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  for (const long n : {1L, 2L, 31L, 64L, 200L}) {
    for (const rt::core::Transform tr :
         {rt::core::Transform::kOrig, rt::core::Transform::kGcdPad,
          rt::core::Transform::kPad}) {
      const rt::core::PlanReport rep =
          rt::core::plan_for_checked(tr, 2048, n, n, spec, n);
      const Dims3 d = Dims3::padded(n, n, n, rep.plan.dip, rep.plan.djp);
      Array3D<double> a(d);
      a.fill(-7.25);  // pad bytes that must not leak into the hash
      for (long k = 0; k < n; ++k) {
        for (long j = 0; j < n; ++j) {
          for (long i = 0; i < n; ++i) a(i, j, k) = val(rng);
        }
      }
      const std::uint64_t want = oracle(a);
      std::vector<std::unique_ptr<rt::par::ThreadPool>> pools;
      pools.push_back(nullptr);
      for (int t = 1; t <= 4; ++t) {
        pools.push_back(std::make_unique<rt::par::ThreadPool>(t));
      }
      const std::string where = "n " + std::to_string(n) + " " +
                                std::string(rt::core::transform_name(tr)) +
                                " pad " +
                                std::to_string(d.p1) + "x" +
                                std::to_string(d.p2);
      for (const auto& pool : pools) {
        EXPECT_EQ(checksum_region(a, pool.get()), want)
            << where << " threads " << (pool ? pool->num_threads() : 0);
      }
      {
        // The serial path ignores the pool: once per array is enough.
        SerialScope serial(true);
        EXPECT_EQ(checksum_region(a, pools.back().get()), want)
            << where << " (serial)";
      }
    }
  }
  EXPECT_EQ(detail::checksum_seam_faults(), 0u);
}

TEST(Checksum, ChainsThatStartMidStreamCombineExactly) {
  // Identity 1: a chain over [a, b) started from s = low byte of h_a ends
  // at R with R mod 256 == low byte of h_b (the seam check) and
  // h_b == R + (h_a - s) * P^(b - a).
  const std::vector<unsigned char> src = random_bytes(5000, 4);
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t a = rng() % 4000;
    const std::size_t b = a + rng() % (src.size() - a);
    const std::uint64_t ha = fnv1a64(src.data(), a);
    const std::uint64_t hb = fnv1a64(src.data() + a, b - a, ha);
    const std::uint64_t s = ha & 0xff;
    const std::uint64_t r = fnv1a64(src.data() + a, b - a, s);
    EXPECT_EQ(r & 0xff, hb & 0xff) << a << ".." << b;
    EXPECT_EQ(r + (ha - s) * pow_prime(b - a), hb) << a << ".." << b;
  }
}

TEST(Checksum, LowByteBitLevelsAreTFunctions) {
  // Identity 2: bit k of L' = ((L ^ x) * 0xb3) mod 256 is
  // L[k] ^ x[k] ^ bit k of (((L ^ x) mod 2^k) * 0xb3), for every L, x, k.
  for (unsigned l = 0; l < 256; ++l) {
    for (unsigned x = 0; x < 256; ++x) {
      const unsigned next = ((l ^ x) * 0xb3u) & 0xffu;
      for (unsigned k = 0; k < 8; ++k) {
        const unsigned y = (((l ^ x) & ((1u << k) - 1u)) * 0xb3u) >> k;
        EXPECT_EQ((next >> k) & 1u, ((l >> k) ^ (x >> k) ^ y) & 1u)
            << l << " " << x << " " << k;
      }
    }
  }
}

}  // namespace
}  // namespace rt::serve
