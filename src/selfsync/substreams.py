"""Per-link random substreams, drawn for all links in one array pass.

``rayleigh_matrix(seed, scale)[i, j]`` equals
``np.random.default_rng(np.random.SeedSequence([seed, i, j])).rayleigh(scale[i, j])``
bit for bit, without building one ``SeedSequence`` and one ``Generator`` per
link. It redoes numpy's own steps in array arithmetic:

1. ``SeedSequence``'s pool-4 hash mix and ``generate_state(4, uint64)``, in
   uint32 arithmetic;
2. PCG64 seeding (``srandom``: two steps of the 128-bit LCG) and its first
   XSL-RR output (O'Neill 2014), on uint64 limbs;
3. the fast path of the exponential ziggurat (Marsaglia & Tsang 2000), which
   ``Generator.standard_exponential`` takes for about 98% of draws, with the
   tables read back from the installed numpy by ``_exponential_tables``.
   ``Generator.rayleigh(m)`` is ``m * sqrt(2 * standard_exponential())``.

A draw that leaves the fast path is redrawn by numpy itself, from one PCG64 set
to that link's seeded state. numpy keeps its bit generators and seeding stable
across versions, but not its distributions: if the fast path does not
reproduce ``Generator.rayleigh`` on a sample of links, every link is redrawn
that way.
"""

from __future__ import annotations

import functools

import numpy as np

_M32 = 0xFFFFFFFF
# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_CHUNK = 1 << 12  # links per pass: its transient arrays stay under about 1 MB


@functools.cache
def _hash_constants(h: int, mult: int, count: int) -> np.ndarray:
    """The running hash constant of ``count`` successive SeedSequence hashes,
    as a read-only (count + 1, 1) column: hash k reads rows k and k + 1."""
    column = [h]
    for _ in range(count):
        column.append(column[-1] * mult & _M32)
    consts = np.array(column, dtype=np.uint32)[:, None]
    consts.flags.writeable = False
    return consts


def _hash(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one row of ``value`` per pair of constants."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> 16)


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy[:, k]).generate_state(4, np.uint64)`` as column
    k of a (4, N) array, for uint32 entropy words in rows. Within one source
    word the pool's other words are mixed in order, each with the next hash
    constant, so they are mixed as one block."""
    extra = max(len(entropy) - _POOL_SIZE, 0)
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE**2 + _POOL_SIZE * extra)
    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:_POOL_SIZE]
    pool = _hash(pool, consts[: _POOL_SIZE + 1])
    c = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], consts[c : c + _POOL_SIZE]))
        c += _POOL_SIZE - 1
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hash(word, consts[c : c + _POOL_SIZE + 1]))
        c += _POOL_SIZE
    cycle = np.arange(8) % _POOL_SIZE
    words = _hash(pool[cycle], _hash_constants(_INIT_B, _MULT_B, 8)).astype(np.uint64)
    return words[0::2] | (words[1::2] << 32)


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit product a * b, from 32-bit halves."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = np.uint64(b & _M32), np.uint64(b >> 32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < b_lo), lo


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's state step, state * MULT + inc mod 2^128, on (hi, lo) limbs."""
    m_hi, m_lo = _PCG_MULT >> 64, _PCG_MULT & _M64
    prod_hi = _mulhi(lo, m_lo) + lo * np.uint64(m_hi) + hi * np.uint64(m_lo)
    return _add128(prod_hi, lo * np.uint64(m_lo), inc_hi, inc_lo)


def _pcg64_seeded(entropy: np.ndarray):
    """(state_hi, state_lo, inc_hi, inc_lo) of ``PCG64(SeedSequence(entropy))``."""
    s_hi, s_lo, q_hi, q_lo = _seed_state(entropy)
    # srandom: inc = (initseq << 1) | 1; state = ((0 + inc) + initstate) stepped once
    inc_hi = (q_hi << 1) | (q_lo >> 63)
    inc_lo = (q_lo << 1) | 1
    hi, lo = _add128(inc_hi, inc_lo, s_hi, s_lo)
    return (*_lcg_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)


def _first_output(hi, lo, inc_hi, inc_lo) -> np.ndarray:
    """PCG64's next 64-bit output: one step, then XSL-RR."""
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    x, rot = hi ^ lo, hi >> 58
    return (x >> rot) | (x << ((64 - rot) & 63))


def _pcg64_state(state: int, inc: int) -> dict:
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _entropy(seed: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The uint32 words of ``[seed, i, j]`` as SeedSequence splits them, one
    row each: the seed low word first, then one word for each of i and j."""
    seed, words = int(seed), []
    while True:
        words.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    entropy = np.empty((len(words) + 2, i.size), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-2], entropy[-1] = i, j
    return entropy


def _fast_draws(seed: int, i, j, scale, tables):
    """(values, fast, seeded PCG64 limbs): ``values`` is the link's Rayleigh
    draw where ``fast`` holds, i.e. where its exponential took the ziggurat's
    fast path; ``tables`` None sends every link off the fast path."""
    limbs = _pcg64_seeded(_entropy(seed, i, j))
    if tables is None:
        return np.empty(i.shape), np.zeros(i.shape, dtype=bool), limbs
    we, ke = tables
    out = _first_output(*limbs)
    ri, idx = out >> 11, ((out >> 3) & 0xFF).astype(np.intp)
    exp = ri.astype(np.float64) * we[idx]
    return scale * np.sqrt(2.0 * exp), ri < ke[idx], limbs


def _probe(bitgen, gen, word: int) -> tuple[float, bool]:
    """``standard_exponential`` from a PCG64 whose next output is ``word``,
    and whether it took the fast path, i.e. consumed exactly that output.
    With inc 1, the state ``(word - 1) * MULT^-1 mod 2^128`` steps to
    ``word``, whose high half is 0, so XSL-RR returns ``word`` unrotated."""
    bitgen.state = _pcg64_state((word - 1) * _PCG_MULT_INV & _M128, 1)
    x = gen.standard_exponential()
    return x, bitgen.state["state"]["state"] == word


@functools.cache
def _exponential_tables() -> tuple[np.ndarray, np.ndarray] | None:
    """numpy's ziggurat tables ``(we, ke)`` for ``standard_exponential``, read
    back through PCG64's state: the fast path takes ``ri = out >> 11`` and
    ``idx = (out >> 3) & 0xFF`` and returns ``ri * we[idx]`` when
    ``ri < ke[idx]``. ``ke[idx]`` is found by bisection on ``ri`` and
    ``we[idx]`` as the draw at ``ri = 1``. None if these tables do not
    reproduce ``Generator.rayleigh`` on a sample of links."""
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    we, ke = np.zeros(256), np.zeros(256, dtype=np.uint64)
    for idx in range(256):
        lo, hi = 0, 1 << 53
        while lo < hi:
            mid = (lo + hi) // 2
            if _probe(bitgen, gen, mid << 11 | idx << 3)[1]:
                lo = mid + 1
            else:
                hi = mid
        ke[idx] = lo
        if lo > 1:
            we[idx] = _probe(bitgen, gen, 1 << 11 | idx << 3)[0]
    # the seed has two words; the scales span four decades
    seed, (i, j) = 2**32 + 12345, np.divmod(np.arange(256), 16)
    scale = np.geomspace(1e-2, 1e2, 256)
    values, fast, _ = _fast_draws(seed, i, j, scale, (we, ke))
    numpy_values = np.array([
        np.random.default_rng(np.random.SeedSequence([seed, a, b])).rayleigh(m)
        for a, b, m in zip(i.tolist(), j.tolist(), scale.tolist())])
    if not np.array_equal(values[fast], numpy_values[fast]):
        return None
    we.flags.writeable = ke.flags.writeable = False
    return we, ke


def rayleigh_matrix(seed: int, scale) -> np.ndarray:
    """(n, n) draws with ``w[i, j]`` equal to
    ``default_rng(SeedSequence([seed, i, j])).rayleigh(scale[i, j])`` for
    every i != j, bit for bit, and a zero diagonal."""
    scale = np.asarray(scale, dtype=float)
    n = len(scale)
    w = np.zeros((n, n))
    if n < 2:
        return w
    # numpy's own check: a negative or non-integer seed raises as it does per link
    np.random.SeedSequence([seed, 0, 0])
    tables = _exponential_tables()
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    rows = max(_CHUNK // n, 1)
    for start in range(0, n, rows):
        i, j = np.divmod(np.arange(start * n, min(start + rows, n) * n), n)
        off = i != j
        i, j = i[off], j[off]
        link_scale = scale[i, j]
        values, fast, limbs = _fast_draws(seed, i, j, link_scale, tables)
        slow = np.flatnonzero(~fast)
        for k, s_hi, s_lo, inc_hi, inc_lo in zip(slow.tolist(),
                                                  *(limb[slow].tolist() for limb in limbs)):
            bitgen.state = _pcg64_state(s_hi << 64 | s_lo, inc_hi << 64 | inc_lo)
            values[k] = gen.rayleigh(link_scale[k])
        w[i, j] = values
    return w
