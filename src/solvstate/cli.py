"""Command-line front end.

Subcommands: state, overlap, evolve, moments, pt, verify. Output payloads are
deterministic for a fixed configuration (the metadata header carries run
info, never timestamps). Exit codes: 0 success, 2 domain error,
3 convergence failure, 4 assertion failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from . import measures as msr
from . import poschl_teller as ptm
from . import states as st
from .errors import ConvergenceError, DomainError
from .fockspace import FockState, displace_ground
from .spectrum import PoschlTellerSpectrum, Spectrum, spectrum_from_json

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3
EXIT_ASSERTION = 4


def parse_complex(text: str) -> complex:
    """Parse shell-safe complex literals like 0.7+0.2i, -1.5i, 0.4."""
    cleaned = text.strip().replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise DomainError(f"cannot parse complex number: {text!r}")


def _sig(x, digits):
    """x to `digits` significant digits; a non-finite float is None (null)."""
    if isinstance(x, float):
        if not math.isfinite(x):
            return None
        return float(f"{x:.{digits}g}")
    return x


def _round_floats(obj, digits=15):
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return _sig(obj, digits)


def _csv(header, rows) -> str:
    """CSV text of a header and rows, floats to 15 significant digits."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([f"{v:.15g}" if isinstance(v, float) else v for v in row]
                for row in rows)
    return buf.getvalue()


def _emit(args, payload: dict, text_renderer=None, csv_renderer=None) -> None:
    renderer = {"csv": csv_renderer, "text": text_renderer}.get(args.format)
    out = renderer(payload) if renderer else json.dumps(
        _round_floats(payload), indent=2, allow_nan=False)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(out + ("\n" if not out.endswith("\n") else ""))
    else:
        print(out)


def _meta(args, command: str, tail_eps: float | None = None) -> dict:
    """The payload's meta block; tail_eps is the budget a state was built to,
    and a state built to none (the nested sums) records no tail_eps."""
    skip = {"func", "output", "format"}
    params = {k: (str(v) if isinstance(v, complex) else v)
              for k, v in sorted(vars(args).items()) if k not in skip}
    if tail_eps is None:
        params.pop("tail_eps", None)
    else:
        params["tail_eps"] = tail_eps
    return {"tool": "solvstate", "version": __version__, "command": command,
            "parameters": params}


def _lam(args) -> float:
    """--lambda, defaulting to 4 (kappa = kappa' = 2)."""
    return 4.0 if args.lam is None else args.lam


def _resolve_spectrum(args) -> Spectrum:
    if args.spectrum:
        return spectrum_from_json(args.spectrum)
    lam = _lam(args)
    return PoschlTellerSpectrum(lam / 2.0, lam / 2.0)


def _lam_of(spec) -> float:
    """lambda of a Poschl-Teller spectrum; the unit-disk KP states exist only
    there, so any other --spectrum is rejected rather than paired with
    --lambda."""
    if isinstance(spec, PoschlTellerSpectrum):
        return spec.lam
    raise DomainError("this operation needs a Poschl-Teller spectrum "
                      "(--lambda or --spectrum with kind poschl_teller)")


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------

def _build_state(args, spec, warn=False) -> tuple[FockState, float | None]:
    """The state the label arguments name and the --tail-eps budget it was
    built to: None for the nested sums, which exit 3 on their own convergence
    test. With `warn`, a state that ends above its budget gets one stderr
    warning."""
    cap = args.max_n
    tail_eps = 1e-12 if args.tail_eps is None else args.tail_eps  # None: not given
    if args.family == "gk":
        if args.z is None:
            raise DomainError("gk state needs --z")
        label = st.GKLabel(args.z, args.alpha, args.k)
        state = st.gk_state(spec, label, tail_eps=tail_eps, cap=cap)
    # kp family: the unit-disk closed form for --xi, and for --Z on Poschl-Teller
    elif args.xi is not None or (args.Z is not None and not args.nested
                                 and isinstance(spec, PoschlTellerSpectrum)):
        label = st.KPLabel(xi=args.xi, Z=args.Z, alpha=args.alpha, k=args.k)
        state = st.kp_state_pt(_lam_of(spec), label, tail_eps=tail_eps, cap=cap,
                               exponent="two_lambda" if args.paper_literal else "lambda")
    elif args.Z is None:
        raise DomainError("kp state needs --xi or --Z")
    elif args.k == 0 and not args.nested and math.isfinite(spec.max_level):
        # a finite table is the whole space: the displacement is exact
        state = displace_ground(spec, args.Z, args.alpha,
                                tail_eps=tail_eps, cap=cap)
    else:
        if cap is not None:
            raise DomainError("--max-n does not apply to the nested-sum "
                              "expansion, which sizes itself (48-384 levels)")
        if args.tail_eps is not None:
            raise DomainError("--tail-eps does not apply to the nested-sum "
                              "expansion, which stops on its own convergence test")
        result = st.kp_state_general(spec, args.Z, args.alpha, args.k)
        if not result.j_converged:
            raise ConvergenceError(
                f"nested-sum expansion not converged "
                f"(worst term ratio {result.worst_term_ratio:.3e})",
                partial=result.state)
        return result.state, None
    if warn and state.tail_bound > tail_eps:
        print(f"warning: tail_bound {state.tail_bound:.3g} exceeds --tail-eps "
              f"{tail_eps:g} with {state.size} coefficients", file=sys.stderr)
    return state, tail_eps


def cmd_state(args) -> int:
    spec = _resolve_spectrum(args)
    state, tail_eps = _build_state(args, spec, warn=True)
    stats = st.photon_statistics(state, spec)
    head = min(8, state.size)
    summary = {
        "norm": state.norm(),
        "tail_bound": state.tail_bound,
        "mean_level": stats.mean_level,
        "mean_energy": stats.mean_energy,
        "distribution_head": [
            {"level": int(stats.levels[i]), "probability": float(stats.probabilities[i])}
            for i in range(head)
        ],
    }
    if args.check_eigen:
        from .verify import eigen_residual
        if args.family != "gk":
            raise DomainError("--check-eigen applies to the gk family")
        summary["eigen_residual"] = eigen_residual(
            spec, st.GKLabel(args.z, args.alpha, args.k))
        summary["is_lowering_eigenstate"] = bool(summary["eigen_residual"] < 1e-6)
    payload = {"meta": _meta(args, "state", tail_eps), "state": state.to_json_dict(),
               "summary": summary}

    def as_text(p):
        lines = [f"{args.family} state: {state.size} coefficients on offset "
                 f"{state.offset}"]
        for key in ("norm", "tail_bound", "mean_level", "mean_energy"):
            lines.append(f"  {key}: {_sig(float(p['summary'][key]), 6)}")
        if "eigen_residual" in p["summary"]:
            lines.append(f"  eigen_residual: {_sig(p['summary']['eigen_residual'], 6)}")
        lines.append("  level probabilities (head):")
        for row in p["summary"]["distribution_head"]:
            lines.append(f"    {row['level']:>4} {_sig(row['probability'], 6)}")
        return "\n".join(lines)

    def as_csv(p):
        return _csv(["n", "level", "re", "im", "probability"],
                    ([n, n + state.offset, c.real, c.imag, abs(c) ** 2]
                     for n, c in enumerate(state.coefficients)))

    _emit(args, payload, as_text, as_csv)
    return EXIT_OK


# ---------------------------------------------------------------------------
# overlap
# ---------------------------------------------------------------------------

def cmd_overlap(args) -> int:
    spec = _resolve_spectrum(args)
    if args.family == "gk":
        if args.z1 is None or args.z2 is None:
            raise DomainError("gk overlap needs --z1 and --z2")
        l1 = st.GKLabel(args.z1, args.alpha1, args.k)
        l2 = st.GKLabel(args.z2, args.alpha2, args.k)
        series = st.gk_overlap(spec, l1, l2)
        closed = None
        note = "closed form available only for equal-alpha Poschl-Teller labels"
        if isinstance(spec, PoschlTellerSpectrum) and args.alpha1 == args.alpha2:
            try:
                closed = st.gk_overlap_compact(spec, l1, l2)
            except ConvergenceError as exc:
                note = f"closed form omitted: {exc}"
    else:
        if args.xi1 is None or args.xi2 is None:
            raise DomainError("kp overlap needs --xi1 and --xi2")
        lam = _lam_of(spec)
        l1 = st.KPLabel(xi=args.xi1, alpha=args.alpha1, k=args.k)
        l2 = st.KPLabel(xi=args.xi2, alpha=args.alpha2, k=args.k)
        series = st.kp_overlap_pt(lam, l1, l2)
        s1 = st.kp_state_pt(lam, l1, tail_eps=1e-24)
        s2 = st.kp_state_pt(lam, l2, tail_eps=1e-24)
        tail = max(s1.tail_bound, s2.tail_bound)
        closed = s1.inner(s2) if tail <= 1e-24 else None
        note = (f"closed form omitted: the coefficient dot product is truncated "
                f"(state tail bound {tail:.3e} above its 1e-24 budget)")

    payload = {"meta": _meta(args, "overlap"),
               "series": {"re": series.real, "im": series.imag,
                          "abs": abs(series)}}
    if closed is not None:
        payload["closed_form"] = {"re": closed.real, "im": closed.imag,
                                  "abs": abs(closed)}
        payload["difference"] = abs(series - closed)
    else:
        payload["closed_form"] = None
        payload["note"] = note

    def as_text(p):
        lines = [f"series      : {_sig(p['series']['re'], 6)} "
                 f"{'+' if p['series']['im'] >= 0 else '-'} "
                 f"{_sig(abs(p['series']['im']), 6)}i   "
                 f"|.| = {_sig(p['series']['abs'], 6)}"]
        if p.get("closed_form"):
            lines.append(f"closed form : {_sig(p['closed_form']['re'], 6)} "
                         f"{'+' if p['closed_form']['im'] >= 0 else '-'} "
                         f"{_sig(abs(p['closed_form']['im']), 6)}i")
            lines.append(f"difference  : {_sig(p['difference'], 6)}")
        elif p.get("note"):
            lines.append(p["note"])
        return "\n".join(lines)

    _emit(args, payload, as_text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------

def _parse_times(text: str):
    try:
        times = [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise DomainError(f"cannot parse time grid: {text!r}")
    if not times:
        raise DomainError("empty time grid")
    return times


def cmd_evolve(args) -> int:
    spec = _resolve_spectrum(args)
    state0, tail_eps = _build_state(args, spec, warn=True)
    times = _parse_times(args.times)
    rows = []
    for t in times:
        ev = st.evolve(state0, spec, t)
        shifted = argparse.Namespace(**{**vars(args), "alpha": args.alpha + t})
        rebuilt, _ = _build_state(shifted, spec)
        deviation = float(np.max(np.abs(ev.coefficients - rebuilt.coefficients)))
        stats = st.photon_statistics(ev, spec)
        rows.append({"t": t, "norm": ev.norm(),
                     "alpha_shift_deviation": deviation,
                     "mean_energy": stats.mean_energy})
    payload = {"meta": _meta(args, "evolve", tail_eps), "rows": rows}

    def as_csv(p):
        header = ["t", "norm", "alpha_shift_deviation", "mean_energy"]
        return _csv(header, ([r[key] for key in header] for r in p["rows"]))

    def as_text(p):
        lines = [f"{'t':>8} {'norm':>10} {'dev(alpha+t)':>14} {'<H>':>12}"]
        for r in p["rows"]:
            lines.append(f"{_sig(r['t'], 6):>8} {_sig(r['norm'], 6):>10} "
                         f"{r['alpha_shift_deviation']:>14.3e} "
                         f"{_sig(r['mean_energy'], 6):>12}")
        return "\n".join(lines)

    _emit(args, payload, as_text, as_csv)
    return EXIT_OK


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def cmd_moments(args) -> int:
    lam = _lam(args)
    k = args.k
    if args.n_max < 1:
        raise DomainError(f"--n-max must be at least 1, got {args.n_max}")
    reports = []
    if args.check in ("mellin", "all"):
        reports.append(msr.mellin_gamma_check_pt(lam, k, args.n_max))
    if args.check in ("gk-diag", "all"):
        reports.append(msr.gk_measure_selfconsistency(lam, k, args.n_max))
    if args.check in ("kp-weights", "all"):
        cand_k = msr.kp_weight_k0(lam)
        reports.append(msr.kp_moment_residuals(lam, 0, cand_k,
                                               n_max=min(args.n_max, 12)))
        readings = ["a_b_b"]
        if args.paper_literal:
            readings.append("a_b_lam2k")
        for reading in readings:
            cand = msr.kp_weight_unit_disk(lam, k, reading=reading)
            reports.append(msr.kp_moment_residuals(
                lam, k, cand, n_max=min(args.n_max, 12 if reading == "a_b_b" else 6)))
    payload = {"meta": _meta(args, "moments"),
               "reports": [r.to_dict() for r in reports]}

    def as_text(p):
        return "\n\n".join(r.to_text() for r in reports)

    _emit(args, payload, as_text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# pt
# ---------------------------------------------------------------------------

def _pt_format(args, formats) -> None:
    """Set args.format to the first of the `formats` this pt action renders,
    unless --format named one; any other format is a domain error."""
    if args.format is None:
        args.format = formats[0]
    elif args.format not in formats:
        raise DomainError(f"pt renders this action as {' or '.join(formats)}, "
                          f"not {args.format}")


def cmd_pt(args) -> int:
    p = ptm.PTParams(args.kappa, args.kappa_prime, args.box_scale)
    if args.eigenfunction is not None or args.partner is not None:
        _pt_format(args, ("csv", "json"))
        n = args.eigenfunction if args.eigenfunction is not None else args.partner
        fn = ptm.eigenfunction if args.eigenfunction is not None \
            else ptm.partner_eigenfunction
        if args.points < 1:
            raise DomainError(f"--points must be at least 1, got {args.points}")
        x = np.linspace(0.0, p.box, args.points)
        vals = fn(p, n, x)
        payload = {"meta": _meta(args, "pt"),
                   "rows": [{"x": float(xx), "value": float(vv)}
                            for xx, vv in zip(x, vals)]}

        def as_csv(pl):
            return _csv(["x", "value"], ([r["x"], r["value"]] for r in pl["rows"]))

        _emit(args, payload, None, as_csv)
        return EXIT_OK

    if args.u_block is not None:
        _pt_format(args, ("json",))
        n_max, m_max = args.u_block
        block = ptm.u_matrix(p, n_max, m_max)
        payload = {
            "meta": _meta(args, "pt"),
            "u_block": [[asdict(e) for e in row] for row in block],
        }
        _emit(args, payload)
        return EXIT_OK

    raise DomainError("pt needs one of --eigenfunction N, --partner N, "
                      "--u-block N M")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    from .verify import run_suite

    for flag, value, takers in (("--lambda", args.lam, ("ladder", "gk", "kp", "measures")),
                                ("--k", args.k, ("measures",))):
        if value is not None and args.suite not in takers:
            raise DomainError(f"{flag} applies only to --suite {'/'.join(takers)}, "
                              f"not to --suite {args.suite}")
    kwargs = {}
    if args.lam is not None and args.suite in ("ladder", "measures"):
        kwargs["lam"] = args.lam
    if args.lam is not None and args.suite in ("gk", "kp"):
        kwargs["lams"] = (args.lam,)
    if args.suite == "measures" and args.k is not None:
        kwargs["k"] = args.k
    reports = run_suite(args.suite, **kwargs)
    all_pass = all(r.passed for r in reports)
    payload = {
        "meta": _meta(args, "verify"),
        "passed": all_pass,
        "suites": [r.to_dict() for r in reports],
        "failures": [
            {"suite": r.suite, **c.to_dict()}
            for r in reports for c in r.failures
        ],
    }

    def as_text(p):
        chunks = [r.to_text() for r in reports]
        chunks.append(f"overall: {'PASS' if all_pass else 'FAIL'}")
        return "\n".join(chunks)

    _emit(args, payload, as_text)
    return EXIT_OK if all_pass else EXIT_ASSERTION


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sp, formats, spectrum=True):
    """--spectrum and --lambda, --format among the `formats` the command
    renders (the first is the default), and --output."""
    if spectrum:
        sp.add_argument("--spectrum", help="spectrum JSON document or file path")
        sp.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="Poschl-Teller lambda shortcut (kappa=kappa'=lambda/2)")
    sp.add_argument("--format", choices=formats, default=formats[0])
    sp.add_argument("--output", help="write to file instead of stdout")


def _add_label_args(sp):
    sp.add_argument("--z", type=parse_complex, help="gk label, e.g. 0.7+0.2i")
    sp.add_argument("--xi", type=parse_complex, help="kp unit-disk label")
    sp.add_argument("--Z", type=parse_complex, help="kp displacement amplitude")
    sp.add_argument("--alpha", type=float, default=0.0)
    sp.add_argument("--k", type=int, default=0, help="number of added excitations")
    sp.add_argument("--tail-eps", type=float, default=None,
                    help="tail budget of the series states and the displacement "
                         "oracle (default 1e-12); the kp --Z nested-sum route "
                         "stops on its own convergence test and rejects it")
    sp.add_argument("--max-n", type=int, default=None,
                    help="truncation cap of the series states and the "
                         "displacement oracle (default 2048, at least 1); the "
                         "kp --Z nested-sum route sizes itself and rejects it")
    sp.add_argument("--nested", action="store_true",
                    help="force the nested-sum construction for kp --Z "
                         "(otherwise Poschl-Teller uses the closed form, a "
                         "finite table at k = 0 the exact displacement "
                         "oracle, and anything else nested sums)")
    sp.add_argument("--paper-literal", action="store_true",
                    help="errata mode: use the published alternate readings")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="solvstate",
        description="photon-added coherent states for solvable spectra",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("state", help="construct a coherent state")
    sp.add_argument("family", choices=("gk", "kp"))
    _add_label_args(sp)
    sp.add_argument("--check-eigen", action="store_true",
                    help="report the lowering-eigenvalue residual")
    _add_common(sp, ("json", "csv", "text"))
    sp.set_defaults(func=cmd_state)

    sp = sub.add_parser("overlap", help="overlap kernel of two states")
    sp.add_argument("family", choices=("gk", "kp"))
    sp.add_argument("--z1", type=parse_complex)
    sp.add_argument("--z2", type=parse_complex)
    sp.add_argument("--xi1", type=parse_complex)
    sp.add_argument("--xi2", type=parse_complex)
    sp.add_argument("--alpha1", type=float, default=0.0)
    sp.add_argument("--alpha2", type=float, default=0.0)
    sp.add_argument("--k", type=int, default=0)
    _add_common(sp, ("json", "text"))
    sp.set_defaults(func=cmd_overlap)

    sp = sub.add_parser("evolve", help="time evolution table")
    sp.add_argument("family", choices=("gk", "kp"))
    _add_label_args(sp)
    sp.add_argument("--times", default="0,0.25,0.5,0.75,1.0",
                    help="comma-separated time grid")
    _add_common(sp, ("csv", "json", "text"))
    sp.set_defaults(func=cmd_evolve)

    sp = sub.add_parser("moments", help="measure / moment verification reports")
    sp.add_argument("--check", choices=("mellin", "kp-weights", "gk-diag", "all"),
                    default="all")
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--n-max", type=int, default=20)
    sp.add_argument("--paper-literal", action="store_true")
    _add_common(sp, ("json", "text"))
    sp.set_defaults(func=cmd_moments)

    sp = sub.add_parser("pt", help="position-space dumps")
    sp.add_argument("--kappa", type=float, default=2.0)
    sp.add_argument("--kappa-prime", type=float, default=2.0)
    sp.add_argument("--box-scale", type=float, default=1.0,
                    help="length scale a (box is (0, pi*a))")
    sp.add_argument("--eigenfunction", type=int, metavar="N")
    sp.add_argument("--partner", type=int, metavar="N")
    sp.add_argument("--u-block", type=int, nargs=2, metavar=("N", "M"))
    sp.add_argument("--points", type=int, default=200)
    _add_common(sp, ("csv", "json"), spectrum=False)
    sp.set_defaults(func=cmd_pt, format=None)  # the default depends on the action

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("--suite",
                    choices=("ladder", "gk", "kp", "measures", "pt", "all"),
                    default="all")
    sp.add_argument("--lambda", dest="lam", type=float, default=None)
    sp.add_argument("--k", type=int, default=None)
    _add_common(sp, ("text", "json"), spectrum=False)
    sp.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except BrokenPipeError:  # `| head`: drop the rest so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
