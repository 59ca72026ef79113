//===- support/Bits.h - Word-level bit kernels -----------------*- C++ -*-===//
//
// Part of the HCSGC reproduction of "Improving Program Locality in the GC
// using Hotness" (PLDI 2020). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Word-at-a-time bit kernels behind the hot metadata walks: popcount and
/// ctz (builtin when available, portable SWAR fallback otherwise) and the
/// SWAR nibble-aging kernel that ages 16 packed temperature nibbles per
/// 64-bit word in one pass (INTERNALS §14). Every
/// kernel here has a scalar reference implementation in this header that
/// support/BitsTest checks bit-for-bit.
///
//===----------------------------------------------------------------------===//

#ifndef HCSGC_SUPPORT_BITS_H
#define HCSGC_SUPPORT_BITS_H

#include <cstddef>
#include <cstdint>

namespace hcsgc {

/// Number of set bits in \p W.
inline unsigned popcount64(uint64_t W) {
#if defined(__GNUC__) || defined(__clang__)
  return static_cast<unsigned>(__builtin_popcountll(W));
#else
  // Classic SWAR reduction: pairwise sums, then nibble sums, then one
  // multiply to horizontally add the eight byte counts.
  W -= (W >> 1) & 0x5555555555555555ull;
  W = (W & 0x3333333333333333ull) + ((W >> 2) & 0x3333333333333333ull);
  W = (W + (W >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<unsigned>((W * 0x0101010101010101ull) >> 56);
#endif
}

/// Index of the lowest set bit of \p W. Precondition: W != 0.
inline unsigned ctz64(uint64_t W) {
#if defined(__GNUC__) || defined(__clang__)
  return static_cast<unsigned>(__builtin_ctzll(W));
#else
  // Isolate the lowest set bit, then count the bits below it.
  return popcount64((W & (0 - W)) - 1);
#endif
}

/// Spreads the 16 bits of \p Bits to every fourth bit position: bit i of
/// the input lands at bit 4*i of the result. This aligns one livemap or
/// hotmap bit with the low bit of each 4-bit temperature nibble, turning
/// per-granule map tests into lane masks for swarAgeTempNibbles.
inline uint64_t spreadBitsToNibbles(uint16_t Bits) {
  uint64_t X = Bits;
  X = (X | (X << 24)) & 0x000000ff000000ffull;
  X = (X | (X << 12)) & 0x000f000f000f000full;
  X = (X | (X << 6)) & 0x0303030303030303ull;
  X = (X | (X << 3)) & 0x1111111111111111ull;
  return X;
}

/// Scalar reference for one temperature nibble (bits [1:0] = 2-bit
/// saturating temperature, bits [3:2] = 2-bit cold streak), exactly the
/// per-granule aging rule Page::ageTemperature applied before the SWAR
/// rewrite — kept as the specification the SWAR kernel is tested against:
///   - untouched granule with a zero nibble and no live bit: unchanged;
///   - hot (touched this cycle): temperature kept (flagHot already
///     bumped it), streak cleared;
///   - temperature > 0: decay one step; reaching 0 starts the streak
///     at 1 (the decaying cycle was itself untouched);
///   - temperature 0 (live or mid-streak): streak += 1, saturating at 3.
inline uint64_t scalarAgeTempNibble(uint64_t Nibble, bool Live, bool Hot) {
  uint64_t Temp = Nibble & 3;
  uint64_t Streak = (Nibble >> 2) & 3;
  if (!Temp && !Streak && !Live)
    return Nibble;
  if (Hot) {
    Streak = 0;
  } else if (Temp > 0) {
    --Temp;
    Streak = Temp == 0 ? 1 : 0;
  } else if (Streak < 3) {
    ++Streak;
  }
  return Temp | (Streak << 2);
}

/// Ages 16 packed temperature nibbles in one pass. \p W holds the nibble
/// word (16 granules, 4 bits each), \p Live16 / \p Hot16 the matching
/// livemap / hotmap bits (bit i describes the granule in nibble i; the
/// caller masks bits past the page's allocation limit). Branch-free SWAR:
/// equals scalarAgeTempNibble applied to each nibble for EVERY input —
/// including states the runtime never produces — so BitsTest can verify
/// it over unconstrained random words.
inline uint64_t swarAgeTempNibbles(uint64_t W, uint16_t Live16,
                                   uint16_t Hot16) {
  constexpr uint64_t Lanes = 0x1111111111111111ull; // bit 0 of each nibble
  constexpr uint64_t TMask = 0x3333333333333333ull; // bits [1:0] of each

  uint64_t Tb = W & TMask;        // temperature fields, in place
  uint64_t Sb = (W >> 2) & TMask; // streak fields, moved to bits [1:0]
  uint64_t Tnz = (Tb | (Tb >> 1)) & Lanes;  // temperature != 0
  uint64_t Snz = (Sb | (Sb >> 1)) & Lanes;  // streak != 0
  uint64_t Ssat = (Sb & (Sb >> 1)) & Lanes; // streak == 3 (saturated)
  uint64_t H = spreadBitsToNibbles(Hot16);
  uint64_t V = spreadBitsToNibbles(Live16);

  // Per-lane branch masks, mutually exclusive by construction. A lane is
  // "active" when anything lives or ages there; inactive zero lanes must
  // stay zero (the scalar skip). Hot lanes outside the active set reduce
  // to a no-op either way (temperature kept, streak already 0).
  uint64_t Active = Tnz | Snz | V;
  uint64_t MDecay = ~H & Tnz;                       // temperature -= 1
  uint64_t MStreak = ~H & ~Tnz & Active & ~Ssat;    // streak += 1

  // Lane-local subtract: every MDecay lane has temperature >= 1 and the
  // borrow cannot cross the zeroed bits [3:2] between fields.
  uint64_t TNew = Tb - MDecay;
  uint64_t TnzNew = (TNew | (TNew >> 1)) & Lanes;
  uint64_t DecayedToZero = MDecay & ~TnzNew; // these lanes start streak=1

  // Streak: keep it only where neither hot nor decaying (both clear it),
  // add the increments (no carry: incremented lanes hold <= 2), then OR
  // in the streak=1 seeds of freshly-decayed-to-zero lanes.
  uint64_t Keep = ~(H | MDecay) & Lanes;
  uint64_t SNew = ((Sb & (Keep | (Keep << 1))) + MStreak) | DecayedToZero;

  return TNew | ((SNew & TMask) << 2);
}

} // namespace hcsgc

#endif // HCSGC_SUPPORT_BITS_H
