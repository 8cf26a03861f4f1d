// exp and expm1 for the evaluator, ported bit for bit from glibc 2.36's
// FMA variants, and the sweeps built on them (see math_kernels.hpp).
//
// exp is the algorithm of Arm's optimized-routines (Copyright (c) 2018,
// Arm Limited; MIT license), which glibc 2.36 ships as
// sysdeps/ieee754/dbl-64/e_exp.c. Its constants and its table of
// 2^(k/128) are copied, as literal hex, from glibc 2.36's __exp_data.
//
// expm1 is fdlibm's s_expm1.c, which glibc 2.36 ships as
// sysdeps/ieee754/dbl-64/s_expm1.c, under this notice:
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================
//
// glibc builds its FMA variants with GCC at -ffp-contract=fast, which
// fuses every a * b + c whose product feeds only additions in the same
// basic block. Each fused() below stands for one such fused site of the
// installed variant's machine code; every other product and sum is
// rounded on its own, as this file is compiled with -ffp-contract=off.
#include "core/math_kernels.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "obs/metrics.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define FPSCHED_AVX2_FMA_BODY 1
#else
#define FPSCHED_AVX2_FMA_BODY 0
#endif

namespace fpsched {

namespace {

// --- fused multiply-add ---------------------------------------------------

// a * b + c rounded once. Where the build target has FMA hardware (and in
// the AVX2+FMA body) this is one instruction. Elsewhere std::fma would
// be glibc's software fma, which switches the rounding mode on every call
// (about 200 ns); this computes the same bits from plain double
// operations: the exact product (Veltkamp-Dekker) and sum (Knuth's
// TwoSum) of the operands, and the low parts' sum rounded to odd, make the
// final addition round as one fma does (Boldo and Melquiond, "Emulation of
// FMA and correctly rounded sums: proved algorithms using rounding to
// odd", IEEE Trans. Computers 57(4), 2008). It is exact wherever no
// intermediate result over- or underflows, which holds for every operand
// the port passes it or leaves the result unchanged.
[[gnu::always_inline]] inline double software_fma(double a, double b, double c) {
  constexpr double kSplitter = 0x1p27 + 1.0;
  const double a_big = kSplitter * a;
  const double a_hi = a_big - (a_big - a);
  const double a_lo = a - a_hi;
  const double b_big = kSplitter * b;
  const double b_hi = b_big - (b_big - b);
  const double b_lo = b - b_hi;
  const double p_hi = a * b;
  const double p_lo = ((a_hi * b_hi - p_hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo;
  const double s_hi = c + p_hi;
  const double s_b = s_hi - c;
  const double s_lo = (c - (s_hi - s_b)) + (p_hi - s_b);
  // v = s_lo + p_lo rounded to odd: when the sum is inexact and rounded to
  // an even neighbor, take the other (odd) neighbor, toward the error.
  const double v = s_lo + p_lo;
  const double v_b = v - s_lo;
  const double v_err = (s_lo - (v - v_b)) + (p_lo - v_b);
  std::uint64_t v_bits = std::bit_cast<std::uint64_t>(v);
  if (v_err != 0.0 && (v_bits & 1) == 0) {
    const bool toward_zero = ((v_bits ^ std::bit_cast<std::uint64_t>(v_err)) >> 63) != 0;
    v_bits = toward_zero ? v_bits - 1 : v_bits + 1;
  }
  const double z = s_hi + std::bit_cast<double>(v_bits);
  // An exact zero (whose sign fma takes from the operands) and a
  // non-finite result are what the plain sum gives.
  return z == 0.0 || !std::isfinite(z) ? p_hi + c : z;
}

// The fused operation of a body: kHardware selects the FMA instruction
// (the AVX2+FMA body); the portable body takes it too when its target has
// fast FMA (GCC and Clang define __FP_FAST_FMA then), else software_fma.
template <bool kHardware>
[[gnu::always_inline]] inline double fused(double a, double b, double c) {
#ifdef __FP_FAST_FMA
  return std::fma(a, b, c);
#else
  if constexpr (kHardware) {
    return std::fma(a, b, c);
  } else {
    return software_fma(a, b, c);
  }
#endif
}

// --- exp (optimized-routines) -------------------------------------------

constexpr int kExpTableBits = 7;
constexpr std::uint64_t kExpN = std::uint64_t{1} << kExpTableBits;
constexpr double kInvLn2N = 0x1.71547652b82fep+7;
constexpr double kNegLn2HiN = -0x1.62e42fefa0000p-8;
constexpr double kNegLn2LoN = -0x1.cf79abc9e3b3ap-47;
constexpr double kShift = 0x1.8p52;
constexpr double kC2 = 0x1.ffffffffffdbdp-2;
constexpr double kC3 = 0x1.555555555543cp-3;
constexpr double kC4 = 0x1.55555cf172b91p-5;
constexpr double kC5 = 0x1.1111167a4d017p-7;

// 2^(k/128) ~= H[k] * (1 + T[k]): entry 2k holds the bits of T[k] and
// entry 2k + 1 those of H[k] with k << 45 subtracted from its exponent.
constexpr std::array<std::uint64_t, 2 * kExpN> kExpTable = {
    0x0000000000000000, 0x3ff0000000000000, 0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335,
    0xbc7160139cd8dc5d, 0x3fefec9a3e778061, 0xbc905e7a108766d1, 0x3fefe315e86e7f85,
    0x3c8cd2523567f613, 0x3fefd9b0d3158574, 0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
    0x3c60f74e61e6c861, 0x3fefc74518759bc8, 0x3c90a3e45b33d399, 0x3fefbe3ecac6f383,
    0x3c979aa65d837b6d, 0x3fefb5586cf9890f, 0x3c8eb51a92fdeffc, 0x3fefac922b7247f7,
    0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2, 0xbc6a033489906e0b, 0x3fef9b66affed31b,
    0xbc9556522a2fbd0e, 0x3fef9301d0125b51, 0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc,
    0xbc91c923b9d5f416, 0x3fef829aaea92de0, 0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51,
    0xbc801b15eaa59348, 0x3fef72b83c7d517b, 0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
    0x3c8b898c3f1353bf, 0x3fef635beb6fcb75, 0xbc96d99c7611eb26, 0x3fef5be084045cd4,
    0x3c9aecf73e3a2f60, 0x3fef54873168b9aa, 0xbc8fe782cb86389d, 0x3fef4d5022fcd91d,
    0x3c8a6f4144a6c38d, 0x3fef463b88628cd6, 0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
    0x3c968efde3a8a894, 0x3fef387a6e756238, 0x3c875e18f274487d, 0x3fef31ce4fb2a63f,
    0x3c80472b981fe7f2, 0x3fef2b4565e27cdd, 0xbc96b87b3f71085e, 0x3fef24dfe1f56381,
    0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1, 0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
    0x3c8b3782720c0ab4, 0x3fef1285a6e4030b, 0x3c6e149289cecb8f, 0x3fef0cafa93e2f56,
    0x3c834d754db0abb6, 0x3fef06fe0a31b715, 0x3c864201e2ac744c, 0x3fef0170fc4cd831,
    0x3c8fdd395dd3f84a, 0x3feefc08b26416ff, 0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
    0xbc924aedcc4b5068, 0x3feef1a7373aa9cb, 0xbc9907f81b512d8e, 0x3feeecae6d05d866,
    0xbc71d1e83e9436d2, 0x3feee7db34e59ff7, 0xbc991919b3ce1b15, 0x3feee32dc313a8e5,
    0x3c859f48a72a4c6d, 0x3feedea64c123422, 0xbc9312607a28698a, 0x3feeda4504ac801c,
    0xbc58a78f4817895b, 0x3feed60a21f72e2a, 0xbc7c2c9b67499a1b, 0x3feed1f5d950a897,
    0x3c4363ed60c2ac11, 0x3feece086061892d, 0x3c9666093b0664ef, 0x3feeca41ed1d0057,
    0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0, 0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
    0x3c7690cebb7aafb0, 0x3feebfdad5362a27, 0x3c931dbdeb54e077, 0x3feebcb299fddd0d,
    0xbc8f94340071a38e, 0x3feeb9b2769d2ca7, 0xbc87deccdc93a349, 0x3feeb6daa2cf6642,
    0xbc78dec6bd0f385f, 0x3feeb42b569d4f82, 0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
    0x3c93350518fdd78e, 0x3feeaf4736b527da, 0x3c7b98b72f8a9b05, 0x3feead12d497c7fd,
    0x3c9063e1e21c5409, 0x3feeab07dd485429, 0x3c34c7855019c6ea, 0x3feea9268a5946b7,
    0x3c9432e62b64c035, 0x3feea76f15ad2148, 0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
    0xbc8c33c53bef4da8, 0x3feea47eb03a5585, 0xbc845378892be9ae, 0x3feea34634ccc320,
    0xbc93cedd78565858, 0x3feea23882552225, 0x3c5710aa807e1964, 0x3feea155d44ca973,
    0xbc93b3efbf5e2228, 0x3feea09e667f3bcd, 0xbc6a12ad8734b982, 0x3feea012750bdabf,
    0xbc6367efb86da9ee, 0x3fee9fb23c651a2f, 0xbc80dc3d54e08851, 0x3fee9f7df9519484,
    0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74, 0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174,
    0xbc8619321e55e68a, 0x3fee9feb564267c9, 0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
    0xbc7b32dcb94da51d, 0x3feea11473eb0187, 0x3c94ecfd5467c06b, 0x3feea1ed0130c132,
    0x3c65ebe1abd66c55, 0x3feea2f336cf4e62, 0xbc88a1c52fb3cf42, 0x3feea427543e1a12,
    0xbc9369b6f13b3734, 0x3feea589994cce13, 0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
    0xbc94d450d872576e, 0x3feea8d99b4492ed, 0x3c90ad675b0e8a00, 0x3feeaac7d98a6699,
    0x3c8db72fc1f0eab4, 0x3feeace5422aa0db, 0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c,
    0x3c7bf68359f35f44, 0x3feeb1ae99157736, 0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
    0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5, 0xbc6c23f97c90b959, 0x3feeba44cbc8520f,
    0xbc92434322f4f9aa, 0x3feebd829fde4e50, 0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba,
    0x3c71affc2b91ce27, 0x3feec49182a3f090, 0x3c6dd235e10a73bb, 0x3feec86319e32323,
    0xbc87c50422622263, 0x3feecc667b5de565, 0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33,
    0xbc91bbd1d3bcbb15, 0x3feed503b23e255d, 0x3c90cc319cee31d2, 0x3feed99e1330b358,
    0x3c8469846e735ab3, 0x3feede6b5579fdbf, 0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
    0x3c8c1a7792cb3387, 0x3feee89f995ad3ad, 0xbc907b8f4ad1d9fa, 0x3feeee07298db666,
    0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb, 0xbc90a40e3da6f640, 0x3feef9728de5593a,
    0xbc68d6f438ad9334, 0x3feeff76f2fb5e47, 0xbc91eee26b588a35, 0x3fef05b030a1064a,
    0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2, 0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09,
    0x3c736eae30af0cb3, 0x3fef199bdd85529c, 0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a,
    0x3c84e08fd10959ac, 0x3fef27f12e57d14b, 0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
    0x3c676b2c6c921968, 0x3fef3720dcef9069, 0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa,
    0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c, 0xbc900dae3875a949, 0x3fef4f87080d89f2,
    0x3c74a385a63d07a7, 0x3fef5818dcfba487, 0xbc82919e2040220f, 0x3fef60e316c98398,
    0x3c8e5a50d5c192ac, 0x3fef69e603db3285, 0x3c843a59ac016b4b, 0x3fef7321f301b460,
    0xbc82d52107b43e1f, 0x3fef7c97337b9b5f, 0xbc892ab93b470dc9, 0x3fef864614f5a129,
    0x3c74b604603a88d3, 0x3fef902ee78b3ff6, 0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
    0xbc8ff7128fd391f0, 0x3fefa4afa2a490da, 0xbc8dae98e223747d, 0x3fefaf482d8e67f1,
    0x3c8ec3bc41aa2008, 0x3fefba1bee615a27, 0x3c842b94c3a9eb32, 0x3fefc52b376bba97,
    0x3c8a64a931d185ee, 0x3fefd0765b6e4540, 0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
    0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8, 0x3c5305c14160cc89, 0x3feff3c22b8f71f1,
};

constexpr std::uint32_t top12(double x) {
  return static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(x) >> 52);
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint32_t kTop12Tiny = top12(0x1p-54);
constexpr std::uint32_t kTop12Large = top12(512.0);

// The main path's reduction: exp(x) = 2^(k/N) exp(r), scale = 2^(k/N)
// and exp(x) ~= scale + scale * tmp. scale_bits is only a valid double
// when |x| < 512.
struct ExpReduction {
  double tmp;
  std::uint64_t scale_bits;
  std::uint64_t ki;
};

template <bool kHardware>
[[gnu::always_inline]] inline ExpReduction exp_reduce(double x) {
  const double shifted = fused<kHardware>(kInvLn2N, x, kShift);
  const std::uint64_t ki = std::bit_cast<std::uint64_t>(shifted);
  const double kd = shifted - kShift;
  const double r = fused<kHardware>(kd, kNegLn2LoN, fused<kHardware>(kd, kNegLn2HiN, x));
  const std::uint64_t idx = 2 * (ki % kExpN);
  const std::uint64_t top = ki << (52 - kExpTableBits);
  const double tail = std::bit_cast<double>(kExpTable[idx]);
  const double r2 = r * r;
  const double tmp =
      fused<kHardware>(r2 * r2, fused<kHardware>(r, kC5, kC4), fused<kHardware>(r2, fused<kHardware>(r, kC3, kC2), tail + r));
  return {tmp, kExpTable[idx + 1] + top, ki};
}

// exp on the main path. It also equals exp for |x| < 2^-54 (0 and
// subnormals included), where exp returns 1.0 + x: there k = 0, tmp = x
// exactly (r^2 is below half an ulp of r) and the fma rounds 1 + x once.
// Only |x| >= 512, infinities and NaN need exp_core.
template <bool kHardware>
[[gnu::always_inline]] inline double exp_main(double x) {
  const ExpReduction red = exp_reduce<kHardware>(x);
  const double scale = std::bit_cast<double>(red.scale_bits);
  return fused<kHardware>(scale, red.tmp, scale);
}

[[gnu::always_inline]] inline bool exp_needs_core(double x) {
  return (top12(x) & 0x7ff) >= kTop12Large;
}

// 512 <= |x| < 1024: the exponent of scale may have over- or underflowed,
// and a subnormal result must be rounded once.
template <bool kHardware>
[[gnu::always_inline]] inline double exp_specialcase(double tmp, std::uint64_t scale_bits,
                                                    std::uint64_t ki) {
  if ((ki & 0x80000000) == 0) {
    // k > 0: the exponent of scale may have overflowed by <= 460.
    const double scale = std::bit_cast<double>(scale_bits - (std::uint64_t{1009} << 52));
    return 0x1p1009 * fused<kHardware>(scale, tmp, scale);
  }
  // k < 0: round once into the subnormal range. This branch is not fused.
  const double scale = std::bit_cast<double>(scale_bits + (std::uint64_t{1022} << 52));
  const double scaled_tmp = scale * tmp;
  double y = scale + scaled_tmp;
  if (y < 1.0) {
    double lo = scale - y + scaled_tmp;
    const double hi = 1.0 + y;
    lo = 1.0 - hi + y + lo;
    y = (hi + lo) - 1.0;
    if (y == 0.0) y = 0.0;  // no -0.0
  }
  return 0x1p-1022 * y;
}

template <bool kHardware>
[[gnu::always_inline]] inline double exp_core(double x) {
  std::uint32_t abstop = top12(x) & 0x7ff;
  if (abstop - kTop12Tiny >= kTop12Large - kTop12Tiny) [[unlikely]] {
    if (abstop - kTop12Tiny >= 0x80000000) return 1.0 + x;  // |x| < 2^-54, 0 included
    if (abstop >= top12(1024.0)) {
      if (x == -kInf) return 0.0;
      if (abstop >= top12(kInf)) return 1.0 + x;
      return std::signbit(x) ? 0.0 : kInf;  // underflow, overflow
    }
    abstop = 0;  // 512 <= |x| < 1024
  }
  const ExpReduction red = exp_reduce<kHardware>(x);
  if (abstop == 0) [[unlikely]] return exp_specialcase<kHardware>(red.tmp, red.scale_bits, red.ki);
  const double scale = std::bit_cast<double>(red.scale_bits);
  return fused<kHardware>(scale, red.tmp, scale);
}

// --- expm1 (fdlibm) -------------------------------------------------------

constexpr double kHuge = 1.0e+300;
constexpr double kTiny = 1.0e-300;
constexpr double kOverflowThreshold = 0x1.62e42fefa39efp+9;  // 709.78...
constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kInvLn2 = 0x1.71547652b82fep+0;
// Scaled coefficients of the rational approximation on [0, 0.5 ln2].
constexpr double kQ1 = -0x1.11111111110f4p-5;
constexpr double kQ2 = 0x1.a01a019fe5585p-10;
constexpr double kQ3 = -0x1.4ce199eaadbb7p-14;
constexpr double kQ4 = 0x1.0cfca86e65239p-18;
constexpr double kQ5 = -0x1.afdb76e09c32dp-23;

// y with k added to its exponent, by integer arithmetic on the high word.
inline double add_to_exponent(double y, int k) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(y) +
                               (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k) << 20)
                                << 32));
}

// A double whose high word is `high` and whose low word is 0.
inline double from_high_word(std::uint32_t high) {
  return std::bit_cast<double>(static_cast<std::uint64_t>(high) << 32);
}

template <bool kHardware>
[[gnu::always_inline]] inline double expm1_core(double x) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  const auto high = static_cast<std::uint32_t>(bits >> 32);
  const bool negative = (high & 0x80000000) != 0;
  const std::uint32_t hx = high & 0x7fffffff;  // high word of |x|

  // Huge and non-finite arguments.
  if (hx >= 0x4043687a) {  // |x| >= 56 ln2
    if (hx >= 0x40862e42) {  // |x| >= 709.78...
      if (hx >= 0x7ff00000) {
        if (((hx & 0xfffff) | static_cast<std::uint32_t>(bits)) != 0) return x + x;  // NaN
        return negative ? -1.0 : x;  // expm1(-inf) = -1, expm1(inf) = inf
      }
      if (x > kOverflowThreshold) return kHuge * kHuge;  // overflow
    }
    if (negative) return kTiny - 1.0;  // x < -56 ln2
  }

  // Argument reduction: x = k ln2 + (hi - lo), and c corrects hi - lo.
  int k = 0;
  double c = 0.0;
  if (hx > 0x3fd62e42) {  // |x| > 0.5 ln2
    double hi = 0.0;
    double lo = 0.0;
    if (hx < 0x3ff0a2b2) {  // and |x| < 1.5 ln2
      if (!negative) {
        hi = x - kLn2Hi;
        lo = kLn2Lo;
        k = 1;
      } else {
        hi = x + kLn2Hi;
        lo = -kLn2Lo;
        k = -1;
      }
    } else {
      k = static_cast<int>(kInvLn2 * x + (negative ? -0.5 : 0.5));
      const double t = k;
      hi = fused<kHardware>(-t, kLn2Hi, x);  // t * ln2_hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x3c900000) {  // |x| < 2^-54: expm1(x) = x
    return x;
  }

  // x is now in the primary range.
  const double hfx = 0.5 * x;
  const double hxs = x * hfx;
  const double r1_even = fused<kHardware>(hxs, kQ1, 1.0);
  const double h2 = hxs * hxs;
  const double r1_mid = fused<kHardware>(hxs, kQ3, kQ2);
  const double h4 = h2 * h2;
  const double r1_high = fused<kHardware>(hxs, kQ5, kQ4);
  const double r1 = fused<kHardware>(h4, r1_high, fused<kHardware>(h2, r1_mid, r1_even));
  double t = fused<kHardware>(-r1, hfx, 3.0);
  double e = hxs * ((r1 - t) / fused<kHardware>(-x, t, 6.0));
  if (k == 0) return x - fused<kHardware>(x, e, -hxs);  // c is 0
  e = fused<kHardware>(x, e - c, -c);
  e -= hxs;
  if (k == -1) return fused<kHardware>(0.5, x - e, -0.5);
  if (k == 1) {
    if (x < -0.25) return -2.0 * (e - (x + 0.5));
    return fused<kHardware>(2.0, x - e, 1.0);
  }
  if (k <= -2 || k > 56) {  // exp(x) - 1 suffices
    const double y = 1.0 - (e - x);
    return add_to_exponent(y, k) - 1.0;
  }
  if (k < 20) {
    t = from_high_word(0x3ff00000U - (0x200000U >> k));  // 1 - 2^-k
    return add_to_exponent(t - (e - x), k);
  }
  t = from_high_word(static_cast<std::uint32_t>(0x3ff - k) << 20);  // 2^-k
  double y = x - (e + t);
  y += 1.0;
  return add_to_exponent(y, k);
}

// --- The sweeps -----------------------------------------------------------

// Blocks of the exp sweep: the arguments are staged in a local buffer,
// so the vectorized main-path loop reads memory that `out` cannot alias
// (the sweep is in-place safe) and the rare fix-up pass still has them.
constexpr std::size_t kSweepBlock = 256;

template <bool kHardware>
[[gnu::always_inline]] inline void exp_neg_mul_core(double lambda, const double* x, double* out,
                                                     std::size_t n) {
  std::array<double, kSweepBlock> arg;
  for (std::size_t base = 0; base < n; base += kSweepBlock) {
    const std::size_t m = std::min(kSweepBlock, n - base);
    for (std::size_t j = 0; j < m; ++j) arg[j] = -lambda * x[base + j];
    unsigned fixups = 0;
    for (std::size_t j = 0; j < m; ++j) {
      out[base + j] = exp_main<kHardware>(arg[j]);
      fixups |= exp_needs_core(arg[j]) ? 1U : 0U;
    }
    if (fixups != 0) [[unlikely]] {
      for (std::size_t j = 0; j < m; ++j) {
        if (exp_needs_core(arg[j])) out[base + j] = exp_core<kHardware>(arg[j]);
      }
    }
  }
}

template <bool kHardware>
[[gnu::always_inline]] inline void expm1_sweep_core(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = expm1_core<kHardware>(x[i]);
}

// The portable body: the build's baseline instruction set, with
// software_fma unless that set has FMA.
double exp_portable(double x) { return exp_core<false>(x); }
double expm1_portable(double x) { return expm1_core<false>(x); }
void expm1_sweep_portable(const double* x, double* out, std::size_t n) {
  expm1_sweep_core<false>(x, out, n);
}
void exp_neg_mul_portable(double lambda, const double* x, double* out, std::size_t n) {
  exp_neg_mul_core<false>(lambda, x, out, n);
}

constexpr MathKernelBody kPortable = {"portable", exp_portable, expm1_portable,
                                      expm1_sweep_portable, exp_neg_mul_portable};

#if FPSCHED_AVX2_FMA_BODY
// The same source with AVX2 and FMA enabled: fused() becomes one
// instruction, and GCC vectorizes the exp sweep's main-path loop.
[[gnu::target("avx2,fma")]] double exp_avx2_fma(double x) { return exp_core<true>(x); }
[[gnu::target("avx2,fma")]] double expm1_avx2_fma(double x) { return expm1_core<true>(x); }
[[gnu::target("avx2,fma")]] void expm1_sweep_avx2_fma(const double* x, double* out,
                                                      std::size_t n) {
  expm1_sweep_core<true>(x, out, n);
}
[[gnu::target("avx2,fma")]] void exp_neg_mul_avx2_fma(double lambda, const double* x,
                                                      double* out, std::size_t n) {
  exp_neg_mul_core<true>(lambda, x, out, n);
}

constexpr MathKernelBody kAvx2Fma = {"avx2_fma", exp_avx2_fma, expm1_avx2_fma,
                                     expm1_sweep_avx2_fma, exp_neg_mul_avx2_fma};
#endif

const MathKernelBody& dispatch() {
  const MathKernelBody* vector = avx2_fma_math_kernels();
  const MathKernelBody& chosen = vector != nullptr ? *vector : kPortable;
  // Telemetry only: names the body behind the evaluator's timings.
  obs::MetricsRegistry::global()
      .gauge("fpsched_eval_exp_kernel_info",
             "the compiled exp/expm1 body the evaluator runs (every body gives the same bits)",
             "kernel=\"" + std::string(chosen.name) + "\"")
      .set(1);
  return chosen;
}

// The body the public functions run, chosen once per process.
const MathKernelBody& active_body() {
  static const MathKernelBody& body = dispatch();
  return body;
}

// Dispatch at start-up, so that /metrics names the body before the first
// evaluation.
[[maybe_unused]] const MathKernelBody& kStartupDispatch = active_body();

}  // namespace

const MathKernelBody& portable_math_kernels() { return kPortable; }

const MathKernelBody* avx2_fma_math_kernels() {
#if FPSCHED_AVX2_FMA_BODY
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return &kAvx2Fma;
#endif
  return nullptr;
}

double exp_port(double x) { return active_body().scalar_exp(x); }

double expm1_port(double x) { return active_body().scalar_expm1(x); }

void vexpm1(const double* x, double* out, std::size_t n) {
  active_body().sweep_expm1(x, out, n);
}

void vexp_neg_mul(double lambda, const double* x, double* out, std::size_t n) {
  active_body().sweep_exp_neg_mul(lambda, x, out, n);
}

}  // namespace fpsched
