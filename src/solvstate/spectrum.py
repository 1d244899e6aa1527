"""Solvable energy spectra and their factorial-moment quantities.

A spectrum is the nondegenerate increasing sequence E_0 = 0 < E_1 < ... of an
exactly solvable Hamiltonian. Everything a coherent-state construction needs
from it reduces to the products E_0(n) = E_n...E_1 and the shifted moments
E_k(n) = E_0(n)^2 / E_0(n+k), which overflow double precision fast; both are
therefore carried in the log domain throughout.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass

from .errors import DomainError, require_finite

__all__ = [
    "Spectrum",
    "PoschlTellerSpectrum",
    "HarmonicSpectrum",
    "CustomSpectrum",
    "RadiusEstimate",
    "spectrum_from_json",
]

# a ratio E_k(n+1)/E_k(n) (or its extrapolated limit) above this counts as
# unbounded growth in `Spectrum.radius`
_DIVERGENCE_THRESHOLD = 1e6


@dataclass(frozen=True)
class RadiusEstimate:
    """Outcome of the convergence-radius probe for the E_k(n) moments.

    status is "infinite", "finite" or "undetermined"; value is +inf, the
    extrapolated limit, or nan respectively.
    """

    status: str
    value: float

    @property
    def is_infinite(self) -> bool:
        return self.status == "infinite"


class Spectrum:
    """Base class; concrete spectra implement `_energy(n)`.

    Instances are immutable from the outside. The internal cache of energies
    and cumulative log-products grows monotonically under a lock, so sharing
    one instance across threads is safe. `levels` serves slices of a
    read-only array copy of each list, rebuilt under the lock whenever a
    call reaches past it, so each copy only grows and is published whole.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._energies = [0.0]
        self._log_e0 = [0.0]  # log E_0(n), n = 0, 1, ...
        self._arrays = ()  # read-only arrays of both lists, for `levels`

    def _energy(self, n: int) -> float:
        raise NotImplementedError

    def _ensure(self, n: int) -> None:
        if n < len(self._energies):
            return
        with self._lock:
            energies, log_e0 = self._energies, self._log_e0
            for m in range(len(energies), n + 1):
                e = float(self._energy(m))
                if not math.isfinite(e):
                    require_finite(**{f"E_{m}": e})
                if e <= energies[-1]:
                    raise DomainError(
                        f"spectrum is not strictly increasing: E_{m} = {e} "
                        f"<= E_{m - 1} = {energies[-1]}"
                    )
                energies.append(e)
                log_e0.append(log_e0[-1] + math.log(e))

    def energy(self, n: int) -> float:
        """E_n; the ground level is pinned to exactly 0."""
        if n < 0:
            raise DomainError(f"level index must be nonnegative, got {n}")
        if n == 0:
            return 0.0
        self._ensure(n)
        return self._energies[n]

    def levels(self, lo: int, hi: int):
        """(E_n, log E_0(n)) for n = lo..hi-1 as two read-only float arrays,
        slices of the held arrays: the levels are checked by `_ensure` as
        by every other accessor, then the arrays are rebuilt from the lists
        only if they end before hi."""
        if lo < 0:
            raise DomainError(f"level index must be nonnegative, got {lo}")
        self._ensure(hi - 1)
        arrays = self._arrays
        if not arrays or len(arrays[0]) < hi:
            import numpy as np  # local, so this module's imports stay stdlib-only

            with self._lock:
                arrays = tuple(np.array(v) for v in (self._energies, self._log_e0))
                for a in arrays:
                    a.flags.writeable = False
                self._arrays = arrays
        return arrays[0][lo:hi], arrays[1][lo:hi]

    def log_e0(self, n: int) -> float:
        """log of E_0(n) = E_n E_{n-1} ... E_1, with E_0(0) = 1."""
        if n < 0:
            raise DomainError(f"level index must be nonnegative, got {n}")
        self._ensure(n)
        return self._log_e0[n]

    def log_ek(self, k: int, n: int) -> float:
        """log of E_k(n) = E_0(n)^2 / E_0(n+k)."""
        if k < 0:
            raise DomainError(f"photon number must be nonnegative, got {k}")
        return 2.0 * self.log_e0(n) - self.log_e0(n + k)

    @property
    def max_level(self) -> float:
        """Highest defined level; +inf unless backed by a finite table."""
        return math.inf

    def radius_hint(self, k: int) -> float:
        """Known radius of convergence of sum |z|^{2n}/E_k(n), if analytic.

        Returns +inf by default; CustomSpectrum falls back to the ratio-test
        estimate. Used for cheap label validation.
        """
        return math.inf

    def radius(self, k: int, n_probe: int = 40) -> RadiusEstimate:
        """Estimate lim E_k(n)^{1/n} by extrapolating E_k(n+1)/E_k(n).

        The ratio r_n = E_{n+1}^2 / E_{n+k+1} has the same limit as the n-th
        root but converges far faster in practice. A tail of ratios that
        grows monotonically past 1e6 is reported as infinite; a non-monotone
        tail yields the "undetermined" status.
        """
        if n_probe < 2:
            raise DomainError(f"radius probe needs n_probe >= 2, got {n_probe}")
        self._ensure(n_probe + k + 1)
        ratios = []
        for n in range(1, n_probe + 1):
            ratios.append(
                math.exp(2.0 * math.log(self._energies[n + 1])
                         - math.log(self._energies[n + k + 1]))
            )
        tail = ratios[-min(6, len(ratios)):]
        tiny = 1e-12 * max(abs(r) for r in tail)
        diffs = [tail[i + 1] - tail[i] for i in range(len(tail) - 1)]
        increasing = all(d >= -tiny for d in diffs)
        decreasing = all(d <= tiny for d in diffs)
        if not (increasing or decreasing):
            return RadiusEstimate("undetermined", math.nan)
        if increasing:
            growth = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
            # non-shrinking increments mean the ratios never level off
            if tail[-1] > _DIVERGENCE_THRESHOLD or all(g >= -tiny for g in growth):
                return RadiusEstimate("infinite", math.inf)
        # ratios level off: Aitken delta-squared on the last triple
        r0, r1, r2 = ratios[-3], ratios[-2], ratios[-1]
        denom = r2 - 2.0 * r1 + r0
        limit = r2 - (r2 - r1) ** 2 / denom if abs(denom) > 1e-300 else r2
        if limit > _DIVERGENCE_THRESHOLD or (increasing and limit < tail[-1]):
            return RadiusEstimate("infinite", math.inf)
        return RadiusEstimate("finite", limit)

    def to_json_dict(self) -> dict:
        raise NotImplementedError


class PoschlTellerSpectrum(Spectrum):
    """E_n = n (n + lambda) with lambda = kappa + kappa' > 0."""

    def __init__(self, kappa: float, kappa_prime: float):
        require_finite(kappa=kappa, kappa_prime=kappa_prime)
        lam = kappa + kappa_prime
        if lam <= 0.0:
            raise DomainError(f"kappa + kappa' must be positive, got {lam}")
        super().__init__()
        self.kappa = float(kappa)
        self.kappa_prime = float(kappa_prime)
        self.lam = lam

    def _energy(self, n):
        return n * (n + self.lam)

    def to_json_dict(self):
        return {"kind": "poschl_teller", "kappa": self.kappa,
                "kappa_prime": self.kappa_prime}

    def __repr__(self):
        return f"PoschlTellerSpectrum(kappa={self.kappa}, kappa_prime={self.kappa_prime})"


class HarmonicSpectrum(Spectrum):
    """E_n = n (oscillator spectrum with the ground energy subtracted)."""

    def _energy(self, n):
        return float(n)

    def to_json_dict(self):
        return {"kind": "harmonic"}

    def __repr__(self):
        return "HarmonicSpectrum()"


class CustomSpectrum(Spectrum):
    """Spectrum given by a finite table or a closed-form rule E(n).

    Strict increase is validated lazily, as levels are first touched. Table
    spectra raise a DomainError past the last tabulated level.
    """

    def __init__(self, energies=None, rule=None, name: str = "custom"):
        if (energies is None) == (rule is None):
            raise DomainError("provide exactly one of `energies` or `rule`")
        super().__init__()
        self.name = name
        self._table = None if energies is None else [float(e) for e in energies]
        self._rule = rule
        if self._table is not None:
            if not self._table or self._table[0] != 0.0:
                raise DomainError("custom spectrum table must start with E_0 = 0")

    def _energy(self, n):
        if self._table is not None:
            if n >= len(self._table):
                raise DomainError(
                    f"custom spectrum table has {len(self._table)} levels, "
                    f"level {n} requested"
                )
            return self._table[n]
        return float(self._rule(n))

    def radius_hint(self, k):
        n_probe = 40
        if self._table is not None:
            n_probe = min(40, self.max_level - k - 1)
            if n_probe < 2:
                return math.inf  # table too short to probe; skip validation
        est = self.radius(k, n_probe=n_probe)
        return est.value if est.status == "finite" else math.inf

    @property
    def max_level(self):
        return len(self._table) - 1 if self._table is not None else math.inf

    def to_json_dict(self):
        if self._table is None:
            raise DomainError("rule-based custom spectrum is not serializable")
        return {"kind": "custom", "energies": self._table}

    def __repr__(self):
        return f"CustomSpectrum(name={self.name!r})"


def spectrum_from_json(source) -> Spectrum:
    """Build a spectrum from a JSON document (dict, JSON string, or path).

    Schema: {"kind": "poschl_teller", "kappa": ..., "kappa_prime": ...},
    {"kind": "harmonic"}, or {"kind": "custom", "energies": [0, ...]}. A
    document that cannot be read or does not fit the schema is a DomainError.
    """
    obj = source
    if not isinstance(source, dict):
        text = str(source)
        try:
            if text.lstrip().startswith("{"):
                obj = json.loads(text)
            else:
                with open(text, "r", encoding="utf-8") as fh:
                    obj = json.load(fh)
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot read spectrum {text!r}: {exc}") from None
    if not isinstance(obj, dict):
        raise DomainError(f"a spectrum is a JSON object, got {obj!r}")
    kind = obj.get("kind")
    try:
        if kind == "poschl_teller":
            return PoschlTellerSpectrum(obj["kappa"], obj["kappa_prime"])
        if kind in ("harmonic", "harmonic_oscillator"):
            return HarmonicSpectrum()
        if kind == "custom":
            return CustomSpectrum(energies=obj["energies"])
    except DomainError:
        raise
    except KeyError as exc:
        raise DomainError(f"a {kind} spectrum needs the field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DomainError(f"malformed {kind} spectrum {obj}: {exc}") from None
    raise DomainError(f"unknown spectrum kind: {kind!r}")
