"""Monte Carlo verification of the growth-rate semantics.

Each path starts with capital 1 and plays N attempts, staking proportion t
of current capital at price u; the per-path growth rate is c_N^(1/N). Only
the outcome counts of a path matter, so each path draws them as one
multinomial. Path i draws from the stream of NumPy's
``default_rng(SeedSequence(seed, spawn_key=(i,))).multinomial(N, probs)``,
reproduced here in plain Python count for count: the SeedSequence hash mix,
PCG64 (O'Neill 2014, XSL-RR output) and the multinomial as a chain of
binomials, each drawn by inversion when n min(p, q) <= 30 and by BTPE
(Kachitvichyanukul & Schmeiser 1988) otherwise. The floating-point
expressions follow the order of NumPy's C code, because any change to it
changes the draws. Runs are deterministic and order-insensitive (log-space
accumulation, exact fsum aggregation).
"""

from __future__ import annotations

import math
from .core import Game, InvariantViolation, OutcomeSpace, _check_aligned, _Record
from .pricer import _check_price, max_proportion

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, Sequence

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence hash constants (pool of 4 uint32 words)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative integer; [0] for 0."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _seed_state(seed: int, key: int) -> list[int]:
    """SeedSequence(seed, spawn_key=(key,)).generate_state(8, uint32)."""
    run = _uint32_words(seed)
    entropy = run + [0] * (_POOL_SIZE - len(run)) + _uint32_words(key)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> 16))
    return state


def _pcg64_doubles(seed: int, key: int) -> Callable[[], float]:
    """next_double of PCG64 seeded from SeedSequence(seed, spawn_key=(key,))."""
    w = _seed_state(seed, key)
    # generate_state(4, uint64) pairs the words little-endian: s = (v0, v1),
    # inc = (v2, v3), each a 128-bit (high, low)
    v = [w[2 * k] | (w[2 * k + 1] << 32) for k in range(4)]
    init = (v[0] << 64) | v[1]
    inc = ((((v[2] << 64) | v[3]) << 1) | 1) & _MASK128
    state = (inc + init) & _MASK128  # step from 0, add the seed
    state = (state * _PCG_MULT + inc) & _MASK128

    def next_double() -> float:
        nonlocal state
        state = s = (state * _PCG_MULT + inc) & _MASK128
        x = ((s >> 64) ^ s) & _MASK64
        rot = s >> 122
        out = ((x >> rot) | (x << (64 - rot))) & _MASK64
        return (out >> 11) * (1.0 / 9007199254740992.0)

    return next_double


def _binomial_inversion(next_double, n: int, p: float) -> int:
    q = 1.0 - p
    qn = math.exp(n * math.log(q))
    np_ = n * p
    bound = int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1)))
    x = 0
    px = qn
    u = next_double()
    while u > px:
        x += 1
        if x > bound:
            x = 0
            px = qn
            u = next_double()
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return x


def _binomial_btpe(next_double, n: int, p: float) -> int:
    r = min(p, 1.0 - p)
    q = 1.0 - r
    fm = n * r + r
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl = xm - p1
    xr = xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    nrq = n * r * q
    while True:
        u = next_double() * p4
        v = next_double()
        if u <= p1:  # triangular region: accept at once
            return math.floor(xm - p1 * v + u)
        if u <= p2:  # parallelograms
            x = xl + (u - p1) / c
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            if v > 1.0:
                continue
            y = math.floor(x)
        elif u <= p3:  # left exponential tail
            if v == 0.0:
                continue
            y = math.floor(xl + math.log(v) / laml)
            if y < 0:
                continue
            v = v * (u - p2) * laml
        else:  # right exponential tail
            if v == 0.0:
                continue
            y = math.floor(xr - math.log(v) / lamr)
            if y > n:
                continue
            v = v * (u - p3) * lamr
        k = abs(y - m)
        if k <= 20 or k >= nrq / 2.0 - 1:
            # explicit evaluation of f(y) / f(m)
            s = r / q
            a = s * (n + 1)
            f = 1.0
            if m < y:
                for i in range(m + 1, y + 1):
                    f *= a / i - s
            elif m > y:
                for i in range(y + 1, m + 1):
                    f /= a / i - s
            if v > f:
                continue
            return y
        # squeeze on log f(y) / f(m), then the Stirling bound
        rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
        t = -k * k / (2 * nrq)
        # C's log gives -inf at v = 0 and NaN below; either way y is accepted
        big_a = math.log(v) if v > 0.0 else -math.inf
        if big_a < t - rho:
            return y
        if big_a > t + rho:
            continue
        x1 = y + 1
        f1 = m + 1
        z = n + 1 - m
        w = n - y + 1
        x2 = float(x1 * x1)
        f2 = float(f1 * f1)
        z2 = float(z * z)
        w2 = float(w * w)
        if big_a > (
            xm * math.log(f1 / x1)
            + (n - m + 0.5) * math.log(z / w)
            + (y - m) * math.log(w * r / (x1 * q))
            + (13680. - (462. - (132. - (99. - 140. / f2) / f2) / f2) / f2) / f1 / 166320.
            + (13680. - (462. - (132. - (99. - 140. / z2) / z2) / z2) / z2) / z / 166320.
            + (13680. - (462. - (132. - (99. - 140. / x2) / x2) / x2) / x2) / x1 / 166320.
            + (13680. - (462. - (132. - (99. - 140. / w2) / w2) / w2) / w2) / w / 166320.
        ):
            continue
        return y


def _binomial(next_double, p: float, n: int) -> int:
    if n == 0 or p == 0.0:
        return 0
    if p <= 0.5:
        if p * n <= 30.0:
            return _binomial_inversion(next_double, n, p)
        return _binomial_btpe(next_double, n, p)
    q = 1.0 - p
    if q * n <= 30.0:
        return n - _binomial_inversion(next_double, n, q)
    return n - _binomial_btpe(next_double, n, q)


def _multinomial(next_double, n: int, probs: Sequence[float]) -> list[int]:
    """Generator.multinomial(n, probs): binomials on the remaining mass."""
    d = len(probs)
    counts = [0] * d
    remaining_p = 1.0
    dn = n
    for j in range(d - 1):
        counts[j] = _binomial(next_double, probs[j] / remaining_p, dn)
        dn -= counts[j]
        if dn <= 0:
            break
        remaining_p -= probs[j]
    if dn > 0:
        counts[d - 1] = dn
    return counts


def _path_counts(space: OutcomeSpace, attempts: int, seed: int, path: int) -> list[int]:
    """Outcome counts of one path: the multinomial of its child stream."""
    return _multinomial(_pcg64_doubles(seed, path), attempts, space.prob_tuple)


class SimConfig(_Record):
    attempts: int
    paths: int
    seed: int
    price: float
    proportion: float

    def __post_init__(self):
        for name in ("attempts", "paths", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvariantViolation(f"{name} must be an integer")
        if self.attempts < 1 or self.paths < 1:
            raise InvariantViolation("attempts and paths must be >= 1")
        _check_price(self.price)
        if not (0.0 <= self.proportion <= 1.0):
            raise InvariantViolation("proportion must lie in [0, 1]")
        if self.seed < 0:
            raise InvariantViolation("seed must be a nonnegative integer")


class SimReport(_Record):
    proportion: float
    mean_growth: float
    var_growth: float
    ci_halfwidth: float
    failed_paths: int = 0

    def to_json_dict(self) -> dict:
        return {
            "mean_growth": self.mean_growth,
            "var_growth": self.var_growth,
            "ci_halfwidth": self.ci_halfwidth,
            "failed_paths": self.failed_paths,
        }


def _draw_paths(space: OutcomeSpace, cfg: SimConfig) -> list[list[int]]:
    return [_path_counts(space, cfg.attempts, cfg.seed, i) for i in range(cfg.paths)]


def _report(game: Game, counts: list[list[int]], attempts: int, u: float,
            t: float) -> SimReport:
    """Mean and variance of c_N^(1/N) over the paths' counts at stake t, with
    a 95% CI half-width; a path whose capital hits 0 reports growth 0."""
    log_f = []
    dead = []
    for j, a in enumerate(game.payoff_tuple):
        factor = a * (t / u) - t + 1.0
        if factor > 0.0:
            log_f.append(math.log(factor))
        else:
            log_f.append(0.0)
            dead.append(j)
    inv_n = 1.0 / attempts
    growths = []
    failures = 0
    for cs in counts:
        if any(cs[j] for j in dead):
            growths.append(0.0)
            failures += 1
        else:
            growths.append(math.exp(math.fsum(c * lf for c, lf in zip(cs, log_f)) * inv_n))
    n = len(growths)
    mean = math.fsum(growths) / n
    try:
        var = math.fsum((g - mean) * (g - mean) for g in growths) / n
    except OverflowError:  # the sum passes the float range
        var = math.inf
    ci = 1.96 * math.sqrt(var / n)
    return SimReport(t, mean, var, ci, failures)


def simulate_growth(game: Game, space: OutcomeSpace, cfg: SimConfig) -> SimReport:
    """Mean and variance of the per-path growth rate, with a 95% CI half-width."""
    _check_aligned(game, space)
    return _report(game, _draw_paths(space, cfg), cfg.attempts, cfg.price,
                   cfg.proportion)


def sweep_proportion(
    game: Game,
    space: OutcomeSpace,
    grid: int,
    cfg: SimConfig,
) -> list[SimReport]:
    """Empirical growth curve over stake proportions at the price cfg.price.

    The grid sets every stake, so cfg.proportion is not read. All grid
    points share the same seed family, so each path's counts are drawn once
    and the curve is smooth in t (common random numbers); its argmax lands
    near the optimal proportion once attempts are large. The grid is
    i * t_hi / (grid - 1), ending at t_hi exactly.
    """
    if grid < 3:
        raise InvariantViolation("grid needs at least 3 points")
    _check_aligned(game, space)
    t_cap = max_proportion(game, cfg.price)
    t_hi = 1.0 if math.isinf(t_cap) else min(1.0, t_cap * (1.0 - 1e-9))
    step = t_hi / (grid - 1)
    counts = _draw_paths(space, cfg)
    return [_report(game, counts, cfg.attempts, cfg.price,
                    t_hi if i == grid - 1 else i * step)
            for i in range(grid)]
