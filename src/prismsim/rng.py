"""numpy's ``default_rng`` stream, bit for bit, without numpy.

``default_rng(entropy)`` builds what ``numpy.random.default_rng`` builds
from the same entropy -- a ``SeedSequence``, a ``PCG64`` seeded from it
and a ``Generator`` over that -- and its ``exponential``, ``random``,
``integers`` and ``uniform`` return the values numpy's return, so seeds
and report digests are those of numpy 2.x.  A run draws a few numbers
per event, and importing numpy would cost more than all of them.

- ``SeedSequence``: the entropy as little-endian 32-bit words, hashed
  into a pool of four words, which yields the four 64-bit state words.
- ``PCG64``: a 128-bit LCG with XSL-RR output (O'Neill, "PCG: A Family
  of Simple Fast Space-Efficient Statistically Good Algorithms for
  Random Number Generation", 2014).  A 32-bit draw returns the low half
  of a 64-bit word and keeps the high half for the next 32-bit draw.
- ``exponential``: numpy's 256-step ziggurat (Marsaglia and Tsang, "The
  Ziggurat Method for Generating Random Variables", J. Stat. Softw.
  5(8), 2000) over numpy's own tables, which are data here: recomputing
  them in high precision does not give numpy's rounding of them.
- ``integers``: Lemire's rejection method, on 32-bit draws when the
  range fits in 32 bits.
"""
from __future__ import annotations

import struct
from binascii import a2b_base64
from math import exp, log1p
from operator import index

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TWO_M53 = 1.0 / 9007199254740992.0
_ZIGGURAT_EXP_R = 7.69711747013104972

# SeedSequence's hash constants and pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_XSHIFT = 16


def _words(entropy) -> list[int]:
    """The entropy as 32-bit words: each int little-endian, 0 as one word."""
    if isinstance(entropy, (list, tuple)):
        return [w for e in entropy for w in _words(e)]
    n = index(entropy)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def generate_state(entropy) -> list[int]:
    """``SeedSequence(entropy).generate_state(4, np.uint64)``."""
    words = _words(entropy)
    const = _INIT_A

    def hashmix(value: int) -> int:
        # the multiplier advances on every call
        nonlocal const
        value ^= const
        const = (const * _MULT_A) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> _XSHIFT)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out, out_const = [], _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ out_const
        out_const = (out_const * _MULT_B) & _MASK32
        value = (value * out_const) & _MASK32
        out.append(value ^ (value >> _XSHIFT))
    # two 32-bit words make one 64-bit word, the first the low half
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class Generator:
    """``Generator(PCG64(SeedSequence(entropy)))`` for the draws a run makes."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, entropy):
        s0, s1, s2, s3 = generate_state(entropy)
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        # from state 0: a step, the first two words added, a step
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _MASK128
        self._half = None  # the high half of a word split for a 32-bit draw

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        word = (state >> 64) ^ (state & _MASK64)
        rot = state >> 122
        return ((word >> rot) | (word << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def random(self) -> float:
        """Uniform on [0, 1) with 53 random bits."""
        return (self._next64() >> 11) * _TWO_M53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def integers(self, high: int) -> int:
        """Uniform on ``range(high)`` by Lemire's method."""
        if not 0 < high <= 1 << 63:
            raise ValueError("high is out of bounds for int64")
        if high == 1:
            return 0
        if high <= 1 << 32:
            if high == 1 << 32:
                return self._next32()
            draw, bits, mask = self._next32, 32, _MASK32
        else:
            draw, bits, mask = self._next64, 64, _MASK64
        product = draw() * high
        if product & mask < high:
            # reject the low products that would bias the result
            threshold = (mask + 1) % high
            while product & mask < threshold:
                product = draw() * high
        return product >> bits

    def exponential(self, scale: float) -> float:
        """``scale`` times a standard exponential by numpy's ziggurat."""
        while True:
            bits = self._next64() >> 3
            step = bits & 0xFF
            bits >>= 8
            x = bits * _WE[step]
            if bits < _KE[step]:
                return scale * x
            if step == 0:
                # the tail, from 1 - U so that the logarithm stays finite
                return scale * (_ZIGGURAT_EXP_R - log1p(-self.random()))
            if (_FE[step - 1] - _FE[step]) * self.random() + _FE[step] < exp(-x):
                return scale * x


default_rng = Generator


# numpy's ziggurat tables ``ke_double`` (uint64), ``we_double`` and
# ``fe_double`` (double), 256 entries each, little-endian, copied from
# the ``.rodata`` of ``src_distributions_distributions.c.o`` in numpy
# 2.4's ``numpy/random/lib/libnpyrandom.a`` (README, "Determinism").
_TABLES = a2b_base64(
    "xpckJxRSHAAAAAAAAAAAAH4xnNdbfRMAEDw/jvVuGACusA4yt5saAHxEGfcn0RsAGmWIDx2VHAByOVwt/hsdALIY"
    "a9Vbfh0AcCwX3TTJHQDInazfCQQeADZ41HF7Mx4Aord8F4taHgBsBG8JQnseAD6uCK8Nlx4AnvBOsfWuHgBWZbQH"
    "vcMeAM6Zh/D21R4AiFZurhTmHgDQHDbKbvQeAKTU3XZLAR8AtpanE+MMHwB69/FpYxcfAHAlRQzyIB8AdKhRGa4p"
    "HwAyVbmPsTEfAAbBV1ESOR8ATGlu6+I/HwD6iNcyM0YfAA46Hb8QTB8AIjNcTIdRHwDA7MMJoVYfAJaZCdlmWx8A"
    "jNAQguBfHwByV0TdFGQfAHiWhfYJaB8A5gIrKsVrHwD05DI9S28fADrxkHGgch8A1glNl8h1HwDAXAQbx3gfAPQ/"
    "QRKfex8Aip8HRlN+HwA4EeI75oAfAGKRrT1agx8AErlWYLGFHwBiQrKJ7YcfAPp0k3UQih8ArDk9uhuMHwBK0EXM"
    "EI4fABY+AQLxjx8A4FiDlr2RHwDYr0esd5MfANpki08glR8AkjhjeLiWHwCSiJYMQZgfAIC6RuG6mR8AAH9pvCab"
    "HwB6cRtWhZwfAALYz1nXnR8AzqFhZx2fHwDANgkUWKAfADgzOuuHoR8A/MRrb62iHwCCBs4ayaMfAKJq7l/bpB8A"
    "fAlNquSlHwCCZ+Re5aYfAMQepdzdpx8AdKjmfM6oHwDuX86Tt6kfAFi4rXCZqh8AMoJYXnSrHwCEBXSjSKwfAOif"
    "v4IWrR8AwIJXO96tHwBsHfIIoK4fAH6wGCRcrx8AEnpbwhKwHwD034EWxLAfAPrxtlBwsR8AOpaynheyHwBKqN8r"
    "urIfABhOfyFYsx8ADL7JpvGzHwDWrAzhhrQfAPyTx/MXtR8Aqv3FAKW1HwBY/jcoLrYfAAoByYizth8AmAe1PzW3"
    "HwCofdxos7cfAAi61h4uuB8A9kcDe6W4HwB0D5qVGbkfAARyuoWKuR8AJm95Yfi5HwCG4u49Y7ofABbsQS/Luh8A"
    "RJG0SDC7HwDipK6ckrsfAJ4CyDzyux8AlCnSOU+8HwDUQOGjqbwfAJ6PVIoBvR8AnHLe+1a9HwBq1osGqr0fAEA/"
    "y7f6vR8A3mRzHEm+HwBeaclAlb4fACixhjDfvh8AdGHe9ia/HwDiioKebL8fAMQEqTGwvx8AsP0PuvG/HwCIRQJB"
    "McAfALJUW89uwB8AJhSLbarAHwCKaZkj5MAfAGSKKfkbwR8AQhl99VHBHwBKD3cfhsEfALR0nn24wR8AQuogFunB"
    "HwDeBdXuF8IfAP6DPA1Fwh8Awk+GdnDCHwAOY5AvmsIfAEaA6TzCwh8AtMbSoujCHwDsIkFlDcMfAA6c3ocwwx8A"
    "xn4LDlLDHwD4Zt/6ccMfAIYoKlGQwx8A+pd0E63DHwBIMwFEyMMfAECrzOThwx8AqE2O9/nDHwBgULh9EMQfAGj9"
    "d3glxB8Axr+16DjEHwAqERXPSsQfAOhH9CtbxB8ABEVs/2nEHwCyAVBJd8QfALj7KwmDxB8A9n9FPo3EHwAa0pnn"
    "lcQfALAw3QOdxB8AMrR5kaLEHwD8B46OpsQfAIz76/ioxB8AnuoWzqnEHwA0+kELqcQfAKAoTq2mxB8AdC7IsKLE"
    "HwDiLeYRncQfAPQthcyVxB8AwF4m3IzEHwB6I+w7gsQfAObeluZ1xB8Agn6B1mfEHwA2wJ0FWMQfACAucG1GxB8A"
    "mMsLBzPEHwAObg3LHcQfAPa7lrEGxB8AYstIsu3DHwA8WT7E0sMfALSRBd61wx8ATGGZ9ZbDHwCSRVoAdsMfAHCT"
    "BvNSwx8AGCiywS3DHwCIeL1fBsMfAGLyy7/cwh8Anp+507DCHwDw/I+MgsIfAGTxedpRwh8AntO2rB7CHwBWZ4zx"
    "6MEfADy7N5awwR8AEM3chnXBHwC21nSuN8EfABQku/b2wB8ApE0YSLPAHwDwr4uJbMAfAGTzkqAiwB8AuHIPcdW/"
    "HwCOSCndhL8fAArGL8Uwvx8Axgx3B9m+HwDafTKAfb4fABSmSwkevh8ACEQ1erq9HwAm+LmnUr0fABogxmPmvB8A"
    "5E0sfXW8HwCqt2O//7sfAKLmP/KEux8AjNGg2QS7HwCscBo1f7ofABi2kr/zuR8A/KvULmK5HwAWShczyrgfAFRb"
    "dnYruB8AXIlbnIW3HwCUVdVA2LYfAEJp2fcith8A4DdvTGW1HwDSab+/nrQfAEbnA8jOsx8APpxTz/SyHwBSKEQy"
    "ELIfAASWWj4gsR8AwuFCMCSwHwCmecQxG68fAAThZ1cErh8Aci2/nd6sHwAKBkDmqKsfACj/mfNhqh8AomZvZQip"
    "HwA8jVCzmqcfABTy0SYXph8AAOqL1HukHwCUwMWTxqIfABTzffT0oB8ACr5rMwSfHwC8+Xkr8ZwfAMSrFUS4mh8A"
    "uC94W1WYHwB4P9Crw5UfAPLxzqn9kh8AHOSa2vyPHwD4hXOeuYwfAAaWR+wqiR8AjtsE+UWFHwCaAzbD/YAfACbp"
    "OXhCfB8AzCpYowB3HwAcJBoPIHEfACo1tzSCah8AZuKoAABjHwDE40+QZlofAHIRzk5yUB8A2m9cZsdEHwCiWYqj"
    "5TYfAAo0UDQUJh8AFAR7BD4RHwDmy1f6rvYeAB4ViKGM0x4AsC0SHqaiHgB8JovHYVkeALALrCv23R0AwOjk2U3b"
    "HADBXb+U7GTRPBlBXYudWGA8K01bSbLWajy6jVupNZNxPHMqSuXmInU8gHrC+5BQeDzMt3nv0Th7PJi9bbfY7H08"
    "PFzGSfA7gDxw9tYk23CBPDMm2pACmII8ym49/oizgzwh/gvGFcWEPMNKAp34zYU8vSun8EDPhjwZ0BfazcmHPG9g"
    "01RZvog80jciVYCtiTwDUl2+yJeKPMSj3d2lfYs8iT+M13tfjDw2fPFNoj2NPFpz8XhmGI48qk9fzwzwjjwJMmhd"
    "0sSPPFh1au12S5A8/ICbR0izkDyv9UmH8xmRPKDfS+uMf5E850k+6SbkkTwu/zhl0keSPAtoI+GeqpI8S9ompZoM"
    "kzwCgm3i0m2TPKBiIdFTzpM8SGdwyigulDwS5zVfXI2UPJMLzWv465Q8TW94KQZKlTz9vrg9jqeVPM8u3ceYBJY8"
    "4GgMbS1hljxEqfpiU72WPLuQeXkRGZc8c3kHI250lzxygX58b8+XPJnV/lMbKpg87OErL3eEmDwqxdBQiN6YPESi"
    "/b1TOJk8OBOtQt6RmTy/A/91LOuZPEqIFL5CRJo8YdKWUyWdmjzJJPJE2PWaPJuXTHlfTps8iY8/s76mmzyZ/lmT"
    "+f6bPJ/ScJoTV5w821rCKxCvnDz75vCO8gadPI1r2PG9Xp08V5BCanW2nTz+MXz3Gw6ePEQQz4O0ZZ48Yhvi5UG9"
    "njyflALixhSfPLX+VytGbJ88oakEZcLDnzzZPJoRnw2gPGKxDfZdOaA8+HZyHB9loDxyAEu745CgPDcBcQOtvKA8"
    "Zi96IHzooDwVrBc5UhShPL59cG8wQKE8+3934RdsoTyWIz2pCZihPINSPd0GxKE84sSpkBDwoTwFDrHTJxyiPCmj"
    "wrNNSKI8nxjQO4N0ojyqzYt0yaCiPF07pWQhzaI8IRcDEYz5ojwRdvt8CiajPKEbiqqdUqM88BqFmkZ/ozz8789M"
    "BqyjPG0zjcDd2KM8xAlP9M0FpDzQbEbm1zKkPKdscZT8X6Q8xIPI/DyNpDykGGsdmrqkPOpFy/QU6KQ8+wDZga4V"
    "pTz4tSzEZ0OlPCdvMbxBcaU8+ZxOaz2fpTw1kxHUW82lPCbPVvqd+6U8Lhpz4wQqpjyMm1yWkVimPO7r0xtFh6Y8"
    "3zyNfiC2pjwIplnLJOWmPPupUBFTFKc8HAT6YaxDpzww0XfRMXOnPAoksXbkoqc89xd9a8XSpzx3cs7M1QKoPCrm"
    "37oWM6g85whhWYljqDxUD6TPLpSoPJRgzEgIxag8ExX+8xb2qDzhc44EXCepPIqCNbLYWKk89LtAOY6KqTxdA8fa"
    "fbypPFHp3dyo7qk8LVnQihAhqjyQxlY1tlOqPA/z0DKbhqo8emWB38C5qjz/rMqdKO2qPLWLbtbTIKs8QiXP+MNU"
    "qzy2TzJ7+oirPBAmB9t4vas8hf0tnUDyqzwt4EJOUyesPKSx6oKyXKw8+yMj2F+SrDxspZXzXMisPIBx7YOr/qw8"
    "rfIwQU01rTz+ox7tQ2ytPAqljVORo608fzXSSjfbrTybUCa0NxOuPFKkFnyUS648fyP0mk+Erjx4dkoVa72uPGiR"
    "W/zo9q48f7ygbsswrzzQXlGYFGuvPOXh77PGpa882AndCuTgrzzUEfl6Nw6wPBs5Ee80LLA8oySSnmtKsDzbJhHP"
    "3GiwPA+tOs+Jh7A8Gcgz93OmsDxvlACpnMWwPLfP71AF5bA8zu8LZq8EsTxKFZJqnCSxPCs6b+zNRLE8wQTEhUVl"
    "sTyerm/dBIaxPCB4oqcNp7E8Wip4pmHIsTxwM5uqAuqxPKL08JPyC7I8UOVPUjMusjy6O0DmxlCyPKbax2Gvc7I8"
    "K1NC6e6WsjxR20W0h7qyPHAtlg583rI8ZVkmWc4CszzQpyoLgSezPGXJO7OWTLM8VqiM+BFyszxDUTSc9ZezPIOL"
    "jXpEvrM80N6tjAHlszyt7vXpLwy0PPhCvcnSM7Q8LMkbhe1btDwylNOYg4S0PEyhXaeYrbQ8J7EcezDXtDwIlbkI"
    "TwG1PLKqrHH4K7U8Wqf4BjFXtTxhRBtM/YK1PAfhOPphr7U8nr2IA2TctTx5GAiXCAq2PJQueyRVOLY8MvTDYE9n"
    "tjzuSJdK/Za2PB57mi9lx7Y8ByX0sY34tjwY0lzOfSq3PMNxveI8Xbc8+XFrtdKQtzzTdhR9R8W3PBIUbumj+rc8"
    "w77ALPEwuDxCc2gGOWi4PKtbac6FoLg8lTY7guLZuDxEdfPSWhS5PA4q/DT7T7k82BqN8dCMuTzq2SQ66sq5PHjx"
    "ST5WCro8O0zoQyVLujzqhq3CaI26PMRF2IIz0bo8CrYDwJkWuzwP6pFQsV27PF7adtKRprs8d+9L3lTxuzyn4MJB"
    "Fj68PPTIyEL0jLw8f6ny7A/evDzFOCdrjTG9POw77G+Uh708n/FOr1DgvTxgCRlu8ju+PMGD8yqvmr48SupQZ8L8"
    "vjyn95GXbmK/POXG9kP+y788Luxis+IcwDzvjvWLEVbAPE6ly83BkcA8oEhdeDHQwDymkkMDqBHBPCpEdWd4VsE8"
    "1sKzvAOfwTx8+smgvOvBPJ+RWbYrPcI8papJrvWTwjzwEUSK4/DCPF73zCfuVMM8YbjIx07BwzxiE+RmlzfEPNFR"
    "R83XucQ89nPPPNhKxTzSE3Pheu7FPHK/S21nqsY8L8bq1lCHxzwZ7fLmn5PIPIV7SA3c6ck8/HHaUZ7DyzyDu34p"
    "2cnOPAAAAAAAAPA/NxGI5UUF7j/x/4FQptDsPyd763sA5es/Kn/mDg8h6z/n+mKlunbqP5ttVRWX3uk/OapVxDFU"
    "6T8v0tN2o9ToP7jFBnjoXeg/JjEkLYru5z9+1AmbboXnP2NLqVu7Iec/xhiEScPC5j8GXE9t+mfmP2avp8HtEOY/"
    "daxMaT295T9zh9qCmGzlP5qJeBW6HuU/r/hRwWbT5D9p4I77aorkPyXhqK+ZQ+Q/gIuxK8v+4z8U0eFE3LvjP9nd"
    "CKeteuM/GGMORSM74z9e2kXjI/3iPyRPH7aYwOI/vTIREW2F4j+jUIwijkviP8g+gbrqEuI/iXuHGXPb4T8lOx7H"
    "GKXhP+5vzm3Ob+E/nBYzvIc74T+NwxxKOQjhPyseK4HY1eA/KtBUiFuk4D99O+4xuXPgP0hl0uvoQ+A/JPNgseIU"
    "4D92RSH+Pc3fP/rFv44tct8/TULr0YYY3z+QnZZLPcDeP1HTfTZFad4//DfhdZMT3j8MIaeIHb/dP3rtuX3Za90/"
    "Cxp+6b0Z3T+S4EDcwcjcP2D7g9nceNw/g6UO0AYq3D+17q4SONzbP4gLmVFpj9s/b4BUlJND2z9f7yg0sPjaP+X2"
    "/da4rto/QAGjaqdl2j/0IXUgdh3aP5I3Wmkf1tk/qHsJ8p2P2T8QgZqf7EnZPwRdVIwGBdk/OV23BOfA2D+MP7yE"
    "iX3YPzhhRLXpOtg/Wc62aQP51z8egMad0rfXP+NyXnNTd9c/6o2wMII31z+dnmQ+W/jWP5zp5CXbudY/nw3Gj/57"
    "1j/kJ0hCwj7WP3ZY7x8jAtY/bO4xJh7G1T/vqTpssIrVP+ejvSHXT9U/9YnejY8V1T8d+SYO19vUP9PaixWrotQ/"
    "776AKwlq1D/iQRjr7jHUP06hMAJa+tM/hbKrMEjD0z/vfbFHt4zTP93Q/CilVtM/NSQxxg8h0z9wQjkg9evSP2Ii"
    "rkZTt9I/KXZFVyiD0j/9dkd9ck/SP/9+C/EvHNI/2wl7917p0T9avJrh/bbRP4IZGQwLhdE/75Hi3oRT0T+6n7rM"
    "aSLRP2ym2VK48dA/M1OP+G7B0D8TPulOjJHQP9KQXfAOYtA/LHx5gPUy0D9qR5OrPgTQP1ST/0zSq88/fj6WXOdP"
    "zz+b4OgPuvTOP/JAWQBIms4/p4Mv1o5Azj85TyJIjOfNP7ju4xo+j80//TG0IKI3zT+f0PY4tuDMPwIYzk94isw/"
    "7q+5XeY0zD81RDln/t/LP6Xkcny+i8s/Pu/cuCQ4yz8LW+tCL+XKP0k8wEvckso/vFzfDipByj8SxeTRFvDJPyMW"
    "PuSgn8k/oZLmnsZPyT95uyVkhgDJP9ViUJ/escg/+RqMxM1jyD/m55RQUhbIP64bhchqycc//kafuRV9xz85KBq5"
    "UTHHP+qE7mMd5sY/KNqmXnebxj+s0TBVXlHGPzFqsPrQB8Y/tsJUCc6+xT/1eC5CVHbFP0mMB21iLsU/+rY8WPfm"
    "xD+WMJjYEaDEP8bMLcmwWcQ/mmo4C9MTxD8FqfiFd87DP8nVlCadicM/rwz630JFwz9ufb6qZwHDPzTPBIUKvsI/"
    "QJlgcip7wj946Lt7xjjCP2XKPa/d9sE/ZtYxIG+1wT94rvDmeXTBPy9xySD9M8E/IBfs7/fzwD8vtlR7abTAP76l"
    "t+5QdcA/BH9ueq02wD+N6sum/PC/PxQEGWaFdb8/PMODrvP6vj/MuY4ERoG+P/u6YfV6CL4/mJOtFpGQvT/XTZEG"
    "hxm9P1f9gGtbo7w/rxAu9AwuvD+PJnFXmrm7P0hlNVQCRrs/ZVRlsUPTuj+3ONk9XWG6Pyj0RtBN8Lk/cGszRxSA"
    "uT+5dOWIrxC5PztTWoMeorg/usQ7LGA0uD/zpteAc8e3Px48GYZXW7c/thaESAvwtj8gtjDcjYW2P/feylzeG7Y/"
    "PruR7fuytT820Fm55Uq1PynZkPKa47Q/XJhD0xp9tD8OsSWdZBe0P56fm5l3srM/GOfGGVNOsz/RjZR29uqyP3AF"
    "zhBhiLI/jJ0sUZImsj9Ao2+oicWxP5JTdY9GZbE/UMpWh8gFsT87G4cZD6ewPxfI9dcZSbA/dpZputDXrz806ESZ"
    "9B6vP+WyLqWeZ64/EFgxSc6xrT9KeR4Dg/2sP+khB2S8Sqw/hdm+EHqZqz+EgGrCu+mqPzjxG0eBO6o/THx7gsqO"
    "qT9td4Bul+OoP2s5OhzoOag/ngirtLyRpz9Sr7Z5FeumP0GgJsfyRaY/ytLFE1WipT/rxZbyPAClPxlrJhSrX6Q/"
    "/xj/R6DAoz+uFD9+HSOjPwzAVskjh6I/1BLzX7TsoT+hsxmf0FOhP1HWfAx6vKA/7voNWbImoD+QmK/H9iSfP2h0"
    "UXqu/50/DBszVJDdnD9wWPpQob6bP5tOkubmopo/SCoTD2eKmT9nmexTKHWYP5b8h9oxY5c/d0CicotUlj9RAqum"
    "PUmVP77wh85RQZQ/hF0xJdI8kz8yOrnhyTuSP19fclRFPpE/8AIeCVJEkD/Ox4ne/ZuOP1cnbhS5tow/LclCVfrY"
    "ij+9p49o6gKJP/V0qua2NIc/yxbkC5NuhT9ib1HBuLCDP3F2s+1p+4E/+ddfKfJOgD/FXXT6UVd9PzZIl9TpI3o/"
    "IDbsN58Edz/9IuPOl/pzP0NAV2k9B3E/EUvNgbNYbD///qHziNhmPySj4ahrlGE/JT4MVLUrWT+5/I33CrJPP0sL"
    "nzIcwz0/"
)
_KE, _WE, _FE = (struct.unpack_from(f"<256{kind}", _TABLES, 2048 * i) for i, kind in enumerate("Qdd"))
