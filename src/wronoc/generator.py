"""Synthetic instance generation.

Reproducibility contract: all randomness comes from SplitMix64, a small
fixed 64-bit generator (state += 0x9E3779B97F4A7C15, then two xor-shift
multiplies), so any implementation in any language can regenerate the
same instances from the same seed.  Test vectors are pinned in the test
suite.  Bounded draws use the plain modulo method, which is part of the
contract.

The resonance model is deliberately simple: a ring of radius R resonates
where an integer number m of in-material wavelengths fits the
circumference, lambda_m = 2*pi*R*n_eff / m, rounded to the nearest
picometre with exact integer arithmetic (2*pi is a fixed 16-digit
fixed-point constant).  With n_eff = 2.950 the 5 um ring lands near five
resonances about 25 nm apart over the C-band-ish default window, and the
free spectral range shrinks as 1/R, which is the only property the
benchmarks rely on.  Identical wavelength collisions across radii arise
naturally whenever radius and order scale together (r/m = r'/m').
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Instance, RadiusEntry

_MASK64 = (1 << 64) - 1
_TWO_PI_E15 = 6283185307179586  # round(2*pi * 1e15)


class GeneratorError(Exception):
    """Generation parameters produced no usable instance."""


class SplitMix64:
    """SplitMix64 PRNG (Steele, Lea, Flood 2014); fixed across platforms."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] via modulo reduction."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)


@dataclass(frozen=True)
class GenSpec:
    """Sweep and band parameters for the full-size synthetic instance.

    Defaults sweep ring radii 5 to 30 um in 0.25 um steps (101 radii) over
    a 1490-1620 nm band with n_eff = 2.950; that shape lands near 1800
    resonances total with per-radius counts growing from ~5 to ~30.
    """

    r_min_pm: int = 5_000_000
    r_max_pm: int = 30_000_000
    r_step_pm: int = 250_000
    band_lo_pm: int = 1_490_000
    band_hi_pm: int = 1_620_000
    n_eff_milli: int = 2950
    jitter_pm: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.r_min_pm > self.r_max_pm:
            raise GeneratorError("r_min_pm must be <= r_max_pm")
        if self.r_step_pm <= 0:
            raise GeneratorError("r_step_pm must be positive")
        if self.band_lo_pm > self.band_hi_pm:
            raise GeneratorError("band_lo_pm must be <= band_hi_pm")
        if self.n_eff_milli <= 0:
            raise GeneratorError("n_eff_milli must be positive")
        if self.jitter_pm < 0:
            raise GeneratorError("jitter_pm must be >= 0")


def generate(spec: GenSpec) -> Instance:
    """Deterministically generate the swept instance described by `spec`.

    Jitter draws are consumed one per in-band resonance, radii in
    ascending order and wavelengths ascending within each radius.  Radii
    whose band holds no resonance are an error, reported all at once.
    """
    rng = SplitMix64(spec.seed)
    sweep = list(range(spec.r_min_pm, spec.r_max_pm + 1, spec.r_step_pm))
    if spec.band_hi_pm < 1:
        raise GeneratorError(
            "band holds no positive wavelength; all radii empty: "
            + ", ".join(str(i + 1) for i in range(len(sweep)))
        )
    denom_unit = 1000 * 10**15  # n_eff_milli scale times the 2*pi fixed point
    radii: list[RadiusEntry] = []
    empty: list[int] = []
    for rid, radius_pm in enumerate(sweep, 1):
        scaled = radius_pm * spec.n_eff_milli * _TWO_PI_E15
        m_hi = scaled // (max(1, spec.band_lo_pm) * denom_unit) + 2
        m_lo = max(1, scaled // (spec.band_hi_pm * denom_unit) - 1)
        noms: set[int] = set()
        for m in range(m_hi, m_lo - 1, -1):  # descending order: ascending lambda
            den = m * denom_unit
            lam = (2 * scaled + den) // (2 * den)  # round half up
            if lam < spec.band_lo_pm:
                continue
            if lam > spec.band_hi_pm:
                break
            if spec.jitter_pm:
                lam += rng.randint(-spec.jitter_pm, spec.jitter_pm)
            if lam > 0:
                noms.add(lam)
        if not noms:
            empty.append(rid)
            continue
        exact = tuple(sorted(noms))  # lmin = nominal = lmax
        radii.append(RadiusEntry(rid, radius_pm, exact, exact, exact))
    if empty:
        raise GeneratorError(
            "band too narrow; radii with zero resonances: "
            + ", ".join(str(i) for i in empty)
        )
    label = (
        f"generated radii={spec.r_min_pm}..{spec.r_max_pm}/{spec.r_step_pm} "
        f"band={spec.band_lo_pm}..{spec.band_hi_pm} n_eff_milli={spec.n_eff_milli} "
        f"jitter={spec.jitter_pm} seed={spec.seed}"
    )
    return Instance(tuple(radii), label)
