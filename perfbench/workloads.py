"""The three workloads: seeded inputs, one operation each, and its checks.

Each workload class sets itself up from the seed (inputs, golden payloads,
warm-up) and gives `ops()`, the endless operation sequence of the timed
loop, and `run(op)`, which returns only when the operation has finished and
been checked. A traced run uses `pass_ops()`, a fixed list, and `pass_op(op)`,
the in-process form of one operation. Both raise `OpFailed` when a check
misses its tolerance.

* verify_all  - one in-process `verify.run_suite("all")` per operation; the
                seed is not used, the suite grid is fixed by the program.
* label_sweep - one seeded state/overlap/kernel item per operation over
                Poschl-Teller (lambda in {1, 2.5, 4, 7}) and harmonic spectra.
* cli_oneshot - one short CLI command per operation, in a fresh interpreter,
                compared byte for byte with a payload captured in process.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import random
import re
import subprocess
import sys

import numpy as np

from solvstate import cli, fockspace as fs, states as st, verify
from solvstate.spectrum import HarmonicSpectrum, PoschlTellerSpectrum

LAMBDAS = (1.0, 2.5, 4.0, 7.0)


class OpFailed(Exception):
    """An operation ran but its output missed a check."""


def _require(ok, what):
    if not ok:
        raise OpFailed(what)


# ---------------------------------------------------------------------------
# verify_all
# ---------------------------------------------------------------------------

# checks per suite at the commit that defined this benchmark; a suite that
# reports fewer has dropped a check, which a speed-up may not do
MIN_CHECKS = {"ladder": 14, "gk": 23, "kp": 21, "measures": 9, "pt": 21}
# the measures suite must keep reporting the unit-disk weight errata
ERRATA_MARKERS = ("(n+lam)/(n*lam)", "a_b_lam2k")


def check_reports(reports, names):
    """Every suite in `names` ran, passed and kept its checks and errata."""
    ran = [r.suite for r in reports]
    _require(set(names) <= set(ran), f"suites {ran} miss some of {list(names)}")
    for r in reports:
        _require(r.passed, f"suite {r.suite} failed: "
                 f"{[c.name for c in r.failures]}")
        _require(len(r.checks) >= MIN_CHECKS.get(r.suite, 0),
                 f"suite {r.suite} ran {len(r.checks)} checks, "
                 f"expected at least {MIN_CHECKS.get(r.suite)}")
        if r.suite == "measures":
            for marker in ERRATA_MARKERS:
                _require(any(marker in e for e in r.errata),
                         f"measures errata no longer mention {marker}")


class VerifyAll:
    def __init__(self, seed):
        # the two cheap suites touch every module's lazy state once; the
        # timed operation, which is checked, is the whole battery
        for name in ("ladder", "gk"):
            verify.run_suite(name)

    def ops(self):
        return itertools.repeat(None)

    def pass_ops(self):
        return [None]

    def run(self, op):
        check_reports(verify.run_suite("all"), MIN_CHECKS)

    pass_op = run


# ---------------------------------------------------------------------------
# label_sweep
# ---------------------------------------------------------------------------

# tolerances: the verify suites' own where the identity is the same one
TOL_NORM = 1e-12        # sum of occupation probabilities
# evolve(t) vs rebuild with alpha + t differ by the rounding of the phase
# (alpha + t) E_n, about eps (alpha + t) |c_n| E_n per level. The suite's 1e-14
# holds at its labels (alpha + t <= 0.71); here alpha + t reaches 2 and KP
# states reach 125 levels, and over 72000 items the difference reached 5.4e-14.
TOL_EVOLVE = 2e-13
TOL_OVERLAP = 1e-10     # overlap series vs coefficient dot product
TOL_EIGEN = 1e-9        # || a- |z> - z |z> ||, k = 0
TOL_NORM_CONST = 1e-10  # KP normalization, closed vs series
TOL_NESTED = 1e-8       # nested-sum state vs closed form, per coefficient

ITEMS = 20000           # cycled if a run needs more
PASS_ITEMS = 300        # traced pass: a fixed prefix of the sequence
WARM_ITEMS = 40


def _polar(rng, lo, hi):
    """Random complex number with modulus uniform on [lo, hi]."""
    r, phi = rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi)
    return complex(r * math.cos(phi), r * math.sin(phi))


# label moduli: the ranges the verify suites' own grids span, so the sweep
# runs on the labels the package is checked at
GK_Z = (0.2, 1.5)       # suite_gk: z grid 0.2, |0.7+0.2i|, 1.5; overlaps at 0.3-1.2
KP_XI = (0.2, 0.7)      # suite_kp: kernel and evolve labels at |xi| 0.2-0.7
NESTED_Z = (0.2, 0.3)   # suite_kp: nested sums at |Z| 0.25 and 0.3


# kinds per block of 20 items, shuffled within each block: a fixed share of
# the slow nested-sum items, so the mix does not vary from seed to seed
BLOCK = ("nested",) * 2 + ("gk",) * 9 + ("kp",) * 9


def make_items(rng, count):
    """Seeded item list: 10 % nested-sum KP, 45 % GK, 45 % unit-disk KP."""
    items = []
    while len(items) < count:
        kinds = list(BLOCK)
        rng.shuffle(kinds)
        for kind in kinds:
            k = rng.randrange(4)
            alphas = (rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.05, 1.0))
            if kind == "nested":
                spec = rng.randrange(len(LAMBDAS) + 1)  # last index: harmonic
                items.append((kind, spec, k, _polar(rng, *NESTED_Z), None, alphas))
            elif kind == "gk":
                spec = rng.randrange(len(LAMBDAS) + 1)
                items.append((kind, spec, k, _polar(rng, *GK_Z), _polar(rng, *GK_Z), alphas))
            else:
                spec = rng.randrange(len(LAMBDAS))
                items.append((kind, spec, k, _polar(rng, *KP_XI), _polar(rng, *KP_XI), alphas))
    return items[:count]


def _harmonic_photon_added(Z, alpha, k, size):
    """Agarwal-Tara state: coefficients on |n+k> proportional to
    Z^n sqrt((n+k)!) / n! times exp(-i alpha (n+k))."""
    n = np.arange(size)
    logm = (n * math.log(abs(Z)) + 0.5 * np.array([math.lgamma(m + k + 1.0) for m in n])
            - np.array([math.lgamma(m + 1.0) for m in n]))
    c = np.exp(logm - logm.max()) * np.exp(1j * n * np.angle(Z) - 1j * alpha * (n + k))
    return fs.FockState(k, c / np.linalg.norm(c), alpha, 0.0)


def _check_stats(state, spec):
    stats = st.photon_statistics(state, spec)
    _require(abs(float(np.sum(stats.probabilities)) - 1.0) <= TOL_NORM,
             "occupation probabilities do not sum to 1")
    _require(stats.mean_level >= state.offset - TOL_NORM, "mean level below offset")


class LabelSweep:
    def __init__(self, seed):
        self.spectra = [PoschlTellerSpectrum(lam / 2.0, lam / 2.0) for lam in LAMBDAS]
        self.spectra.append(HarmonicSpectrum())
        self.items = make_items(random.Random(seed), ITEMS)
        for item in make_items(random.Random(~seed), WARM_ITEMS):
            try:
                self.run(item)
            except OpFailed:
                pass  # warm-up only; the timed loop checks and counts its own items

    def ops(self):
        return itertools.cycle(self.items)

    def pass_ops(self):
        return self.items[:PASS_ITEMS]

    def run(self, item):
        kind = item[0]
        if kind == "gk":
            self._gk(*item[1:])
        elif kind == "kp":
            self._kp(*item[1:])
        else:
            self._nested(*item[1:])

    pass_op = run

    def _gk(self, si, k, z1, z2, alphas):
        spec = self.spectra[si]
        a1, a2, t = alphas
        l1, l2 = st.GKLabel(z1, a1, k), st.GKLabel(z2, a2, k)
        # a deep tail, so truncation stays far below the overlap tolerance
        s1 = st.gk_state(spec, l1, tail_eps=1e-24)
        s2 = st.gk_state(spec, l2, tail_eps=1e-24)
        _check_stats(s1, spec)
        ev = st.evolve(s1, spec, t)
        rb = st.gk_state(spec, st.GKLabel(z1, a1 + t, k), tail_eps=1e-24)
        _require(float(np.max(np.abs(ev.coefficients - rb.coefficients))) <= TOL_EVOLVE,
                 "gk evolve differs from the alpha + t rebuild")
        _require(abs(st.gk_overlap(spec, l1, l2) - s1.inner(s2)) <= TOL_OVERLAP,
                 "gk overlap series differs from the coefficient dot product")
        if k == 0:
            deep = st.gk_state(spec, l1, tail_eps=1e-28)
            lad = fs.build_ladder(spec, a1, deep.offset + deep.size)
            lowered = fs.apply(lad.a_minus, deep)
            resid = lowered.coefficients - z1 * deep.embed(lad.N + 1)
            _require(float(np.linalg.norm(resid)) <= TOL_EIGEN,
                     "k = 0 gk state is not a lowering eigenstate")

    def _kp(self, si, k, xi1, xi2, alphas):
        lam, spec = LAMBDAS[si], self.spectra[si]
        a1, a2, t = alphas
        l1 = st.KPLabel(xi=xi1, alpha=a1, k=k)
        l2 = st.KPLabel(xi=xi2, alpha=a2, k=k)
        s1 = st.kp_state_pt(lam, l1, tail_eps=1e-24)
        s2 = st.kp_state_pt(lam, l2, tail_eps=1e-24)
        _check_stats(s1, spec)
        ev = st.evolve(s1, spec, t)
        rb = st.kp_state_pt(lam, st.KPLabel(xi=xi1, alpha=a1 + t, k=k), tail_eps=1e-24)
        _require(float(np.max(np.abs(ev.coefficients - rb.coefficients))) <= TOL_EVOLVE,
                 "kp evolve differs from the alpha + t rebuild")
        _require(abs(st.kp_overlap_pt(lam, l1, l2) - s1.inner(s2)) <= TOL_OVERLAP,
                 "kp kernel differs from the coefficient dot product")
        u = abs(xi1) ** 2
        closed = st.kp_norm_constant_pt(lam, u, k, method="closed")
        series = st.kp_norm_constant_pt(lam, u, k, method="series")
        _require(abs(math.expm1(closed - series)) <= TOL_NORM_CONST,
                 "kp normalization closed form differs from its series")

    def _nested(self, si, k, Z, _unused, alphas):
        spec, alpha = self.spectra[si], alphas[0]
        res = st.kp_state_general(spec, Z, alpha, k)
        _require(res.j_converged, "nested-sum expansion did not converge")
        if si < len(LAMBDAS):
            ref = st.kp_state_pt(LAMBDAS[si], st.KPLabel(Z=Z, alpha=alpha, k=k),
                                 tail_eps=1e-24)
        else:
            ref = _harmonic_photon_added(Z, alpha, k, res.state.size)
        _require(verify.coeff_distance(res.state, ref) <= TOL_NESTED,
                 "nested-sum state differs from the closed form")


# ---------------------------------------------------------------------------
# cli_oneshot
# ---------------------------------------------------------------------------

COMMANDS = 32  # distinct commands per seed, cycled by the timed loop
_RUNTIME = re.compile(rb'"runtime_s": [-+.0-9eE]+')


def _mask(payload):
    """The verify payload carries its own wall time; that one field is masked."""
    return _RUNTIME.sub(b'"runtime_s": null', payload)


def _c(z):
    return f"{z.real:.4f}{z.imag:+.4f}i"


def make_commands(rng, count):
    cmds = []
    for i in range(count):
        kind = i % 7  # the same mix of kinds for every seed; parameters vary
        lam = f"{rng.choice(LAMBDAS):g}"
        k = str(rng.randrange(4))
        if kind == 0:
            cmd = ["state", "gk", f"--z={_c(_polar(rng, *GK_Z))}", "--k", k,
                   "--lambda", lam, f"--alpha={rng.uniform(0, 1):.3f}"]
        elif kind == 1:
            cmd = ["state", "kp", f"--xi={_c(_polar(rng, *KP_XI))}", "--k", k,
                   "--lambda", lam]
        elif kind == 2:
            cmd = ["overlap", "gk", f"--z1={_c(_polar(rng, *GK_Z))}",
                   f"--z2={_c(_polar(rng, *GK_Z))}", "--k", k, "--lambda", lam]
        elif kind == 3:
            cmd = ["evolve", "gk", f"--z={_c(_polar(rng, *GK_Z))}", "--k", k,
                   "--lambda", lam, "--times", "0,0.25,0.5,1.0"]
        elif kind == 4:
            cmd = ["moments", "--check", "mellin", "--lambda", lam, "--k", k,
                   "--n-max", str(rng.randrange(10, 31))]
        elif kind == 5:
            cmd = ["pt", "--u-block", "6", "6", "--kappa", rng.choice(("1.2", "2", "3.4")),
                   "--kappa-prime", rng.choice(("1.2", "2", "3.4"))]
        else:
            cmd = ["verify", "--suite", "gk", "--format", "json"]
        cmds.append(cmd)
    return cmds


def run_main(argv):
    """In-process `cli.main`; returns (exit code, masked stdout bytes)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, _mask(buf.getvalue().encode())


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliOneshot:
    def __init__(self, seed, root):
        self.root = root
        self.env = child_env(root)
        self.commands = make_commands(random.Random(seed), COMMANDS)
        self.golden = {}  # command -> in-process payload, None if it exited non-zero
        for cmd in self.commands:
            code, out = run_main(cmd)
            self.golden[tuple(cmd)] = out if code == 0 else None

    def ops(self):
        return itertools.cycle(self.commands)

    def pass_ops(self):
        return self.commands

    def run(self, cmd):
        _require(self.golden[tuple(cmd)] is not None, f"{cmd} exited non-zero in process")
        proc = subprocess.run([sys.executable, "-m", "solvstate.cli", *cmd],
                              capture_output=True, env=self.env, cwd=self.root,
                              timeout=120)
        _require(proc.returncode == 0, f"{cmd} exited {proc.returncode}: "
                 f"{proc.stderr.decode(errors='replace')[-300:]}")
        _require(_mask(proc.stdout) == self.golden[tuple(cmd)],
                 f"{cmd} payload differs from the in-process golden payload")

    def pass_op(self, cmd):
        """Traced-run operation: the same command through in-process cli.main."""
        code, out = run_main(cmd)
        _require(code == 0, f"{cmd} exited {code} in process")
        _require(out == self.golden[tuple(cmd)], f"{cmd} payload changed in process")
