// The served-solve checksum: 64-bit FNV-1a over the logical region, bit for
// bit the byte-serial fnv1a64, without its one-byte-at-a-time dependency
// chain.  Two exact identities carry it (DESIGN.md, "Checksum"):
//
//  1. Chains that start mid-stream.  With h' = (h ^ b) * P mod 2^64, the
//     low byte L = h mod 256 evolves on its own, L' = ((L ^ b) * 0xb3) mod
//     256.  A plain chain over bytes [a, b) started from s = L_a ends at R
//     with h_b = R + (h_a - s) * P^(b-a) mod 2^64.  So once L is known at
//     every chain start, the chains run independently and combine in
//     order; R mod 256 must equal the next chain's start (the seam check).
//  2. Low bytes by bit level.  XOR and multiplication by an odd constant
//     are T-functions: bit k of L_{i+1} is L_i[k] ^ b_i[k] ^ y_i[k] with
//     y_i = ((L_i ^ b_i) mod 2^k) * 0xb3.  Per level that is a prefix XOR
//     over a 64-byte block (PCLMULQDQ of a vptestmb mask against all-ones)
//     plus one carry bit into the next block, and y picks up the new bit
//     with one masked byte add.
//
// Phase 1 (identity 2) finds the low byte at every 1 KiB slice start of an
// 8 KiB tile; phase 2 (identity 1) runs the tile's eight slices as eight
// interleaved scalar chains.  Serially the phases are fused per tile; on a
// pool one thread runs phase 1 over the whole stream while the others
// take chunks of chains right behind it, each chunk folded into one
// affine map h -> a + b * h.  Hosts without AVX-512BW and PCLMULQDQ run
// the byte-serial hash.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "rt/par/thread_pool.hpp"
#include "rt/serve/protocol.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define RT_CHECKSUM_X86 1
#include <immintrin.h>
#else
#define RT_CHECKSUM_X86 0
#endif

namespace rt::serve {
namespace {

constexpr std::uint64_t kPrime = 1099511628211ull;
constexpr std::uint64_t kBasis = 14695981039346656037ull;
constexpr std::size_t kBlock = 64;    ///< bytes per mask (one zmm)
constexpr std::size_t kSlice = 1024;  ///< bytes per chain
constexpr std::size_t kTile = 8192;   ///< bytes per tile: L1-resident
constexpr int kChains = static_cast<int>(kTile / kSlice);
constexpr std::size_t kBlocks = kTile / kBlock;
constexpr std::size_t kBlocksPerSlice = kSlice / kBlock;
/// Tiles per unit of pooled chain work (128 KiB); a stream of fewer than
/// two chunks is hashed fused on the calling thread.
constexpr std::size_t kChunkTiles = 16;

constexpr std::uint64_t pow_prime(std::size_t e) {
  std::uint64_t r = 1;
  for (std::size_t i = 0; i < e; ++i) r *= kPrime;
  return r;
}
constexpr std::uint64_t kPrimeSlice = pow_prime(kSlice);

std::atomic<bool> g_force_serial{false};
std::atomic<std::uint64_t> g_seam_faults{0};

/// The bytes a checksum covers, in hash order: n2 * n3 equal segments (the
/// logical columns), segment s = j + n2 * k at base + j * s1 + k * s2.
struct Stream {
  const unsigned char* base;
  std::size_t seg, n2, n3, s1, s2;

  std::size_t size() const { return seg * n2 * n3; }
  const unsigned char* at(std::size_t s) const {
    return base + (s % n2) * s1 + (s / n2) * s2;
  }

  /// Merge segments that are back to back in memory, so unpadded arrays
  /// read as one segment and their tiles are never copied.
  Stream merged() const {
    Stream m = *this;
    if (m.n2 > 1 && m.s1 == m.seg) {
      m.seg *= m.n2;
      m.n2 = 1;
      m.s1 = m.seg;
    }
    if (m.n2 == 1 && m.n3 > 1 && m.s2 == m.seg) {
      m.seg *= m.n3;
      m.n3 = 1;
      m.s2 = m.seg;
    }
    return m;
  }

  /// Bytes [pos, pos + len): in place when one segment holds them, else
  /// gathered into @p buf.
  const unsigned char* view(std::size_t pos, std::size_t len,
                            unsigned char* buf) const {
    std::size_t s = pos / seg, off = pos % seg;
    if (off + len <= seg) return at(s) + off;
    unsigned char* out = buf;
    while (len > 0) {
      const std::size_t take = std::min(seg - off, len);
      std::memcpy(out, at(s) + off, take);
      out += take;
      len -= take;
      ++s;
      off = 0;
    }
    return buf;
  }
};

std::uint64_t fnv_serial(const Stream& st, std::uint64_t h) {
  for (std::size_t s = 0; s < st.n2 * st.n3; ++s) {
    h = fnv1a64(st.at(s), st.seg, h);
  }
  return h;
}

/// h -> a + b * h (mod 2^64): a chain, a tile or a range of tiles.
struct Affine {
  std::uint64_t a = 0, b = 1;
};

/// Phase 2 over one full tile: the eight slice chains, each started from
/// its low byte starts[c] (starts[kChains] is the low byte at the tile
/// end), composed onto @p f.  Returns false when a seam check fails.
///
/// The chains stay in general-purpose registers on purpose: vectorized,
/// the 64-bit multiplies become vpmullq (or a pmuludq emulation), whose
/// latency makes eight chains slower than one serial hash.  This function
/// is compiled for the baseline ISA, and the empty asm pins the chains to
/// registers.
bool tile_chains(const unsigned char* t, const std::uint8_t* starts,
                 Affine* f) {
  std::uint64_t h0 = starts[0], h1 = starts[1], h2 = starts[2],
                h3 = starts[3], h4 = starts[4], h5 = starts[5],
                h6 = starts[6], h7 = starts[7];
  for (std::size_t i = 0; i < kSlice; ++i) {
    h0 = (h0 ^ t[i]) * kPrime;
    h1 = (h1 ^ t[i + kSlice]) * kPrime;
    h2 = (h2 ^ t[i + 2 * kSlice]) * kPrime;
    h3 = (h3 ^ t[i + 3 * kSlice]) * kPrime;
    h4 = (h4 ^ t[i + 4 * kSlice]) * kPrime;
    h5 = (h5 ^ t[i + 5 * kSlice]) * kPrime;
    h6 = (h6 ^ t[i + 6 * kSlice]) * kPrime;
    h7 = (h7 ^ t[i + 7 * kSlice]) * kPrime;
    asm("" : "+r"(h0), "+r"(h1), "+r"(h2), "+r"(h3), "+r"(h4), "+r"(h5),
        "+r"(h6), "+r"(h7));
  }
  const std::uint64_t r[kChains] = {h0, h1, h2, h3, h4, h5, h6, h7};
  bool ok = true;
  for (int c = 0; c < kChains; ++c) {
    ok &= (r[c] & 0xff) == starts[c + 1];
    // h_end = r + (h_start - s) * P^kSlice, composed after f.
    f->a = r[c] - starts[c] * kPrimeSlice + kPrimeSlice * f->a;
    f->b *= kPrimeSlice;
  }
  return ok;
}

#if RT_CHECKSUM_X86
#define RT_CHECKSUM_AVX512 \
  __attribute__((target("avx512f,avx512bw,pclmul")))

/// One bit level K of phase 1 over a tile: carries bit K of the low byte
/// at the tile start (starts[0]) through the tile's blocks, ORs bit K of
/// the low byte at every later slice start and at the tile end into
/// starts[1..kChains], and adds bit K of x = L ^ b, times 0xb3 << K, into
/// every y byte.
template <int K>
RT_CHECKSUM_AVX512 void starts_level(const unsigned char* tile, __m512i* y,
                                     std::uint8_t* starts) {
  const __m512i bit = _mm512_set1_epi8(static_cast<char>(1u << K));
  const __m512i add = _mm512_set1_epi8(static_cast<char>(0xb3u << K));
  const __m128i ones = _mm_set1_epi64x(-1);
  // The carry as all-ones or zero: it XORs straight into a block's prefix
  // and stays a one-instruction dependency chain.
  std::uint64_t carry = 0 - static_cast<std::uint64_t>((starts[0] >> K) & 1u);
  for (int c = 0; c < kChains; ++c) {
    // starts[0] is read only: on a pool it is the previous tile's end,
    // which chains may be reading already.
    if (c > 0) starts[c] |= static_cast<std::uint8_t>((carry & 1u) << K);
    const unsigned char* d = tile + c * kSlice;
    __m512i* ys = y + c * kBlocksPerSlice;
    for (std::size_t b = 0; b < kBlocksPerSlice; ++b) {
      const __mmask64 mb =
          _mm512_test_epi8_mask(_mm512_loadu_si512(d + b * kBlock), bit);
      __mmask64 m = mb;
      if constexpr (K > 0) {
        m = _kxor_mask64(m, _mm512_test_epi8_mask(ys[b], bit));
      }
      // Inclusive prefix XOR of m: carry-less multiply by all-ones.
      const std::uint64_t incl = static_cast<std::uint64_t>(
          _mm_cvtsi128_si64(_mm_clmulepi64_si128(
              _mm_cvtsi64_si128(static_cast<long long>(_cvtmask64_u64(m))),
              ones, 0)));
      const __mmask64 l = _cvtu64_mask64((incl << 1) ^ carry);  // L_i[K]
      carry ^=
          static_cast<std::uint64_t>(static_cast<std::int64_t>(incl) >> 63);
      if constexpr (K == 0) {
        ys[b] = _mm512_maskz_mov_epi8(_kxor_mask64(l, mb), add);
      } else if constexpr (K < 7) {
        ys[b] = _mm512_mask_add_epi8(ys[b], _kxor_mask64(l, mb), ys[b], add);
      }
    }
  }
  starts[kChains] |= static_cast<std::uint8_t>((carry & 1u) << K);
}

/// Phase 1 over one full tile: starts[0] holds the low byte at the tile
/// start; fills starts[1..kChains] (the other slice starts, then the tile
/// end).  Levels outer, blocks inner over an L1-resident tile: only the
/// 1-bit carry per block sits on the dependency chain.
RT_CHECKSUM_AVX512 void tile_starts(const unsigned char* tile,
                                    std::uint8_t* starts) {
  __m512i y[kBlocks];  // y_i = (x_i mod 2^K) * 0xb3, one byte per i
  std::memset(starts + 1, 0, kChains);
  starts_level<0>(tile, y, starts);
  starts_level<1>(tile, y, starts);
  starts_level<2>(tile, y, starts);
  starts_level<3>(tile, y, starts);
  starts_level<4>(tile, y, starts);
  starts_level<5>(tile, y, starts);
  starts_level<6>(tile, y, starts);
  starts_level<7>(tile, y, starts);
}
#undef RT_CHECKSUM_AVX512

bool fast_supported() {
  static const bool ok = __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512bw") &&
                         __builtin_cpu_supports("pclmul");
  return ok;
}
#else
bool fast_supported() { return false; }
void tile_starts(const unsigned char*, std::uint8_t*) {}
#endif

bool use_fast() {
  return fast_supported() && !g_force_serial.load(std::memory_order_relaxed);
}

/// FNV-1a of @p st from @p h0 by the two-phase method; false when a seam
/// check fails (the caller then rehashes serially).
bool fnv_chains(const Stream& st, std::uint64_t h0, rt::par::ThreadPool* pool,
                std::uint64_t* out) {
  const std::size_t tiles = st.size() / kTile;
  alignas(64) unsigned char buf[kTile];
  Affine f;
  bool ok = true;
  if (pool == nullptr || pool->num_threads() < 2 || tiles < 2 * kChunkTiles) {
    // Fused: both phases per tile while it sits in L1.
    std::uint8_t starts[kChains + 1];
    starts[kChains] = static_cast<std::uint8_t>(h0);
    for (std::size_t t = 0; t < tiles; ++t) {
      const unsigned char* tile = st.view(t * kTile, kTile, buf);
      starts[0] = starts[kChains];
      tile_starts(tile, starts);
      ok &= tile_chains(tile, starts, &f);
    }
  } else {
    // Pipelined: pool index 0 runs phase 1 over the whole stream and
    // publishes how many tiles have their slice starts; every index
    // (index 0 too, once phase 1 is done) takes chunks of chains in order
    // of the stream, waiting for phase 1 to pass each one.  parallel_for
    // hands index 0 out first and runs a nested or one-thread job in index
    // order, so phase 1 always makes progress and no wait can deadlock.
    const std::size_t chunks = (tiles + kChunkTiles - 1) / kChunkTiles;
    std::vector<std::uint8_t> starts(tiles * kChains + 1);
    starts[0] = static_cast<std::uint8_t>(h0);
    std::atomic<std::size_t> ready{0}, next{0};
    struct Chunk {
      Affine f;
      bool ok = true;
    };
    std::vector<Chunk> res(chunks);
    pool->parallel_for(pool->num_threads(), [&](long p) {
      alignas(64) unsigned char pbuf[kTile];
      if (p == 0) {
        for (std::size_t t = 0; t < tiles; ++t) {
          tile_starts(st.view(t * kTile, kTile, pbuf), &starts[t * kChains]);
          ready.store(t + 1, std::memory_order_release);
        }
      }
      for (std::size_t c = next.fetch_add(1); c < chunks;
           c = next.fetch_add(1)) {
        const std::size_t end = std::min(tiles, (c + 1) * kChunkTiles);
        // A chunk of chains outruns phase 1 on it, so the wait is short: a
        // yield loop, not a futex round trip per chunk.
        while (ready.load(std::memory_order_acquire) < end) {
          std::this_thread::yield();
        }
        for (std::size_t t = c * kChunkTiles; t < end; ++t) {
          res[c].ok &= tile_chains(st.view(t * kTile, kTile, pbuf),
                                   &starts[t * kChains], &res[c].f);
        }
      }
    });
    for (const Chunk& r : res) {
      f.a = r.f.a + r.f.b * f.a;
      f.b *= r.f.b;
      ok &= r.ok;
    }
  }
  std::uint64_t h = f.a + f.b * h0;
  const std::size_t done = tiles * kTile;
  const std::size_t tail = st.size() - done;
  if (tail > 0) h = fnv1a64(st.view(done, tail, buf), tail, h);
  *out = h;
  return ok;
}

std::uint64_t fnv_dispatch(const Stream& raw, rt::par::ThreadPool* pool) {
  const Stream st = raw.merged();
  if (use_fast()) {
    std::uint64_t h = kBasis;
    if (fnv_chains(st, kBasis, pool, &h)) return h;
    g_seam_faults.fetch_add(1, std::memory_order_relaxed);
  }
  return fnv_serial(st, kBasis);
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kPrime;
  }
  return h;
}

std::uint64_t checksum_region(const rt::array::Array3D<double>& a,
                              rt::par::ThreadPool* pool) {
  const rt::array::Dims3& d = a.dims();
  if (d.n1 <= 0 || d.n2 <= 0 || d.n3 <= 0) return kBasis;
  constexpr std::size_t kElem = sizeof(double);
  const Stream st{reinterpret_cast<const unsigned char*>(a.data()),
                  static_cast<std::size_t>(d.n1) * kElem,
                  static_cast<std::size_t>(d.n2),
                  static_cast<std::size_t>(d.n3),
                  static_cast<std::size_t>(d.column_stride()) * kElem,
                  static_cast<std::size_t>(d.plane_stride()) * kElem};
  return fnv_dispatch(st, pool);
}

const char* checksum_path_name() { return use_fast() ? "avx512" : "serial"; }

namespace detail {

std::uint64_t fnv1a64_dispatched(const void* data, std::size_t bytes,
                                 rt::par::ThreadPool* pool) {
  if (bytes == 0) return kBasis;
  return fnv_dispatch(
      Stream{static_cast<const unsigned char*>(data), bytes, 1, 1, bytes,
             bytes},
      pool);
}

void force_serial_checksum(bool on) {
  g_force_serial.store(on, std::memory_order_relaxed);
}

std::uint64_t checksum_seam_faults() {
  return g_seam_faults.load(std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace rt::serve
