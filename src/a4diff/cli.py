"""Command-line front end.

Five subcommands share one reporting pipeline: `analyze` runs an alpha
through branch analysis and both decompositions, `hkg` adds the
one-point invariants, `verify` additionally rebuilds the module by
explicit matrices and compares the oracle's decomposition of them with
the closed form, `zoo` lists or dumps the indecomposable catalogue, and
`examples` synthesizes the three closed-form families.  Reports print
either human-readable or as canonical JSON; identical inputs give
byte-identical JSON.

Exit codes: 0 success, 1 usage, 2 mathematical precondition failure,
3 verification mismatch.

A command loads only the layers it runs: the matrix stack (numpy,
repbuilder, modulezoo, oracle) is imported by the verification and zoo
paths when they start, and `_forked` (plain forked workers) by a batch
of several jobs, so an analyze run never loads numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .gf import FieldSpec
from .ratlaurent import RatFunc
from .ramification import INF, analyze_branch_data, param_to_json
from .decomp import (
    kG_decomposition,
    kH_decomposition,
    mu_nu,
    _string_block,
)
from ._families import (
    degenerate_orbit_alpha,
    generic_orbit_alpha,
    hkg_alpha,
)

SCHEMA = 2

__all__ = ["JobSpec", "Report", "run_cli", "main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------- job/report

class JobSpec:
    """One unit of work: a field, a mode, and either alpha or options."""

    __slots__ = ("field", "alpha", "mode", "options")

    def __init__(self, field, alpha, mode, options=None):
        modes = ("analyze", "hkg", "verify", "zoo", "examples")
        if mode not in modes:
            raise UsageError(f"job mode must be one of {', '.join(modes)}, "
                             f"got {mode!r}")
        if alpha is None and mode != "examples":
            raise UsageError(f"{mode} job needs alpha")
        self.field = field
        self.alpha = alpha
        self.mode = mode
        self.options = dict(options or {})
        trunc = self.options.get("trunc")
        if trunc is not None and _json_int(trunc, "trunc") < 0:
            raise UsageError(f"trunc must be >= 0, got {trunc}")

    def to_json(self):
        options = {k: v for k, v in sorted(self.options.items())
                   if v is not None and v is not False}
        out = {"schema": SCHEMA, "mode": self.mode,
               "field": self.field.to_json(), "options": options}
        if self.alpha is not None:
            out["alpha"] = self.alpha.to_json()
        return out

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise UsageError("job must be a JSON object")
        if "field" in obj:
            fobj = obj["field"]
            if not isinstance(fobj, dict) or "m" not in fobj:
                raise UsageError("job field must be an object with an m key")
            _json_int(fobj["m"], "field m")
            field = (FieldSpec.from_json(fobj) if "modulus" in fobj
                     else FieldSpec(fobj["m"]))
        else:
            modulus = obj.get("modulus")
            field = FieldSpec(_json_int(obj.get("m", 8), "m"),
                              None if modulus is None
                              else _json_int(modulus, "modulus"))
        alpha = None
        if "alpha" in obj:
            alpha = _parse_alpha_obj(field, obj["alpha"])
        mode = obj.get("mode", "verify" if alpha is not None else "examples")
        options = obj.get("options", {})
        if not isinstance(options, dict):
            raise UsageError("job options must be a JSON object")
        return cls(field, alpha, mode, options)


class Report:
    """Everything one job produced; JSON omits wall-clock timings so
    identical inputs serialize identically."""

    __slots__ = ("job", "ram", "kH", "kG", "hkg", "verification", "timings")

    def __init__(self, job, ram, kH, kG, hkg=None, verification="skipped",
                 timings=None):
        self.job = job
        self.ram = ram
        self.kH = kH
        self.kG = kG
        self.hkg = hkg
        self.verification = verification
        self.timings = dict(timings or {})

    def to_json(self):
        trunc = self.job.options.get("trunc")
        out = {
            "schema": SCHEMA,
            "job": self.job.to_json(),
            "ram": _truncated_ram(self.ram.to_json(), trunc),
            "kH": self.kH.to_json(),
            "kG": self.kG.to_json(),
            "verification": self.verification,
        }
        if self.hkg is not None:
            out["hkg"] = self.hkg
        return out


def _json_int(value, what):
    """value if it is a JSON integer; anything else is a usage error."""
    if type(value) is not int:
        raise UsageError(f"job {what} must be an integer, got {value!r}")
    return value


def _truncated_ram(obj, trunc):
    """Cap the echoed theta coefficient lists at trunc entries."""
    if trunc is None:
        return obj
    def walk(node):
        if isinstance(node, dict):
            return {k: (v[:trunc] if k == "theta" and isinstance(v, list)
                        else walk(v)) for k, v in node.items()}
        if isinstance(node, list):
            return [walk(v) for v in node]
        return node
    return walk(obj)


# ---------------------------------------------------------------- parsing

def _parse_alpha_obj(field, obj):
    if not isinstance(obj, dict) or "num" not in obj or "den" not in obj:
        raise UsageError(
            "alpha must be a JSON object {\"num\": [...], \"den\": [...]} "
            "of coefficient masks, constant term first")
    # an empty num is the zero polynomial, as RatFunc.to_json writes it
    for key, kind in (("num", "list"), ("den", "nonempty list")):
        coeffs = obj[key]
        if (not isinstance(coeffs, list) or not (coeffs or key == "num") or
                not all(type(c) is int and 0 <= c < field.order
                        for c in coeffs)):
            raise UsageError(
                f"alpha {key} must be a {kind} of masks below 2^{field.m}")
    if not any(obj["den"]):
        raise UsageError("alpha denominator is zero")
    return RatFunc.from_json(field, obj)


def _parse_alpha_arg(field, text):
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read alpha file: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"alpha is not valid JSON: {exc}") from exc
    return _parse_alpha_obj(field, obj)


def _field_from_args(args):
    m = args.m if args.m is not None else 8
    return FieldSpec(m, args.modulus)


# ---------------------------------------------------------------- pipeline

def _hkg_block(data):
    bp = data.special[0]
    mn = mu_nu(bp, data)
    l, a1, a2 = _string_block(bp, mn)
    return {
        "p": bp.p_alpha,
        "m": bp.m,
        "M": bp.M,
        "delta": bp.delta,
        "lambda": param_to_json(bp.lam),
        "l": l,
        "a1": a1,
        "a2": a2,
        "mu": [mn.mu1, mn.mu2, mn.mu3],
        "genus": data.genus,
    }


def _verification_block(data, kG, kH, timings):
    """Build the model as triplets and decompose it on both sides.  Running
    out of memory there is refused like a block past the oracle's cap."""
    from .oracle import decompose_rep
    from .repbuilder import build_global_rep
    try:
        t0 = time.perf_counter()
        gr = build_global_rep(data)
        timings["build"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        solG = decompose_rep(gr.model)
        solH = decompose_rep(gr.model.restrict_to_h())
        timings["oracle"] = time.perf_counter() - t0
    except MemoryError:
        raise ValueError("unsupported configuration: out of memory in the "
                         f"matrix model of dimension {data.genus}") from None
    okG = dict(solG.multiplicities) == kG.entries
    okH = dict(solH.multiplicities) == kH.entries
    return {
        "status": "PASS" if okG and okH else "FAIL",
        "dim": gr.dim,
        "kG_match": okG,
        "kH_match": okH,
        "oracle_kG": solG.to_json(),
        "oracle_kH": solH.to_json(),
    }


def run_job(job):
    """Execute one job; raises ValueError on mathematical preconditions."""
    timings = {}
    alpha = job.alpha
    if job.mode == "examples":
        alpha = _synthesize_example(job)
    job.alpha = alpha
    t0 = time.perf_counter()
    data = analyze_branch_data(alpha)
    timings["analyze"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    kH = kH_decomposition(data)
    kG = kG_decomposition(data)
    timings["decompose"] = time.perf_counter() - t0
    hkg = None
    if job.mode == "hkg":
        if data.orbits or data.r != 1:
            raise ValueError("not an HKG datum")
        hkg = _hkg_block(data)
    verification = "skipped"
    if job.mode == "verify" or job.options.get("verify"):
        verification = _verification_block(data, kG, kH, timings)
    return Report(job, data, kH, kG, hkg, verification, timings)


# ---------------------------------------------------------------- examples

def _admissible_psi(field):
    """Smallest band-admissible mask: psi outside {0, 1, zeta, zeta^2}."""
    z = field.zeta()
    banned = {0, 1, z.mask, (z * z).mask}
    for mask in range(2, field.order):
        if mask not in banned:
            return field.element(mask)
    return None


def _synthesize_example(job):
    ex = job.options.get("example")
    if not isinstance(ex, dict) or "which" not in ex:
        raise UsageError("examples mode needs options.example.which")
    which = ex["which"]
    n = _json_int(ex.get("n", 1), "example n")
    if n < 1:
        raise UsageError("example index n must be >= 1")
    if which == 1:
        x = _json_int(ex.get("x", 1), "example x")
        if x < 1:
            raise UsageError("example twist x must be >= 1")
        return hkg_alpha(job.field, n, x)
    if which == 2:
        return degenerate_orbit_alpha(job.field, n)
    if which == 3:
        psi_mask = ex.get("psi")
        if psi_mask is None:
            # enlarge the field until an admissible psi exists
            field = job.field
            while True:
                psi = _admissible_psi(field)
                if psi is not None:
                    break
                field = FieldSpec(field.m + 2)
            job.field = field
            ex["psi"] = psi.mask
        else:
            field = job.field
            if not 0 <= _json_int(psi_mask, "example psi") < field.order:
                raise ValueError(
                    f"unsupported field: psi mask {psi_mask} is outside "
                    f"GF(2^{field.m})")
            z = field.zeta()
            if psi_mask in {0, 1, z.mask, (z * z).mask}:
                raise ValueError(
                    "unsupported configuration: psi must avoid "
                    "{0, 1, zeta, zeta^2} so the band parameter psi^3 "
                    "is a unit with three distinct cube roots")
            psi = field.element(psi_mask)
        return generic_orbit_alpha(job.field, n, psi)
    raise UsageError("example which must be 1, 2 or 3")


# ---------------------------------------------------------------- output

def _dump(obj, pretty):
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _human_param(value):
    if value is INF:
        return "inf"
    z = value.spec.zeta()
    if value == z:
        return "zeta"
    if value == z * z:
        return "zeta^2"
    return str(value.mask)


def _human_kh_label(label):
    if label.kind == "Triv":
        return "k"
    if label.kind == "String":
        return f"M_{{{label.dim},{label.x}}}"
    return f"N_{{{label.dim},{_human_param(label.param)}}}"


def _human_kg_label(label):
    if label.kind == "Simple":
        return f"S_{label.i}"
    if label.kind == "OddString":
        return f"M_{{{label.dim},{label.x},{label.i}}}"
    if label.kind == "EvenString":
        star = "inf" if label.param is INF else "0"
        return f"N_{{{label.dim},{star},{label.i}}}"
    return f"B_{{{label.dim},{label.param.mask}}}"


def _human_decomposition(dec, fmt):
    parts = []
    for label, mult in dec.sorted_entries():
        text = fmt(label)
        parts.append(text if mult == 1 else f"{mult} {text}")
    return " + ".join(parts) if parts else "0"


def _human_report(report, out):
    data = report.ram
    field = report.job.field
    print(f"mode {report.job.mode} over GF(2^{field.m}), "
          f"modulus mask {field.modulus}", file=out)
    alpha = report.job.alpha
    print(f"alpha: degrees {alpha.num.degree}/{alpha.den.degree}, "
          f"inverted {'yes' if data.inverted else 'no'}", file=out)
    print(f"genus {data.genus}; {len(data.special)} fixed branch "
          f"point(s), {len(data.orbits)} orbit(s)", file=out)
    for bp in data.special:
        print(f"  {bp.place.key()}: p={bp.p_alpha} m={bp.m} M={bp.M} "
              f"delta={bp.delta} lambda={_human_param(bp.lam)}",
              file=out)
    for orb in data.orbits:
        lams = ",".join(_human_param(pt.lam) for pt in orb.points)
        print(f"  orbit psi={orb.psi.mask} [{orb.klass}]: m={orb.m} "
              f"M={orb.M} delta={orb.delta} lambda=({lams}) "
              f"phi={_human_param(orb.phi)}", file=out)
    if report.hkg is not None:
        h = report.hkg
        print(f"hkg invariants: p={h['p']} delta={h['delta']} l={h['l']} "
              f"a1={h['a1']} a2={h['a2']} mu={tuple(h['mu'])}", file=out)
    print(f"kH (dim {report.kH.total_dim}): "
          f"{_human_decomposition(report.kH, _human_kh_label)}", file=out)
    print(f"kG (dim {report.kG.total_dim}): "
          f"{_human_decomposition(report.kG, _human_kg_label)}", file=out)
    if report.verification == "skipped":
        print("verification: skipped", file=out)
    else:
        v = report.verification
        print(f"verification: {v['status']} (dim {v['dim']}, "
              f"kG {'ok' if v['kG_match'] else 'MISMATCH'}, "
              f"kH {'ok' if v['kH_match'] else 'MISMATCH'})", file=out)
    stages = " ".join(f"{k}={v:.3f}s" for k, v in report.timings.items())
    print(f"timings: {stages}", file=out)


# ---------------------------------------------------------------- zoo

def _run_zoo(args, out):
    from .modulezoo import (kg_group_rep, kh_group_rep, parse_label,
                            validate_group_rep, zoo_dump, zoo_labels)
    field = _field_from_args(args)
    if args.label:
        label = parse_label(field, args.label)
        obj = zoo_dump(field, label)
        obj["schema"] = SCHEMA
        print(_dump(obj, args.pretty), file=out)
        return 0
    sides = ("kH", "kG") if args.side == "both" else (args.side,)
    # list every side first: an over-long listing is refused before any
    # model is built
    listings = [(side, list(zoo_labels(field, args.max_dim, side)))
                for side in sides]
    entries = []
    for side, labels in listings:
        for label in labels:
            rep = (kh_group_rep(field, label) if side == "kH"
                   else kg_group_rep(field, label))
            try:
                validate_group_rep(rep)
                valid = True
            except ValueError:
                valid = False
            entries.append({"side": side, "label": label.label_str(),
                            "dim": rep.dim, "valid": valid})
    if args.json or args.pretty:
        obj = {"schema": SCHEMA, "mode": "zoo", "field": field.to_json(),
               "max_dim": args.max_dim, "entries": entries}
        print(_dump(obj, args.pretty), file=out)
    else:
        ok = sum(e["valid"] for e in entries)
        print(f"zoo over GF(2^{field.m}): {len(entries)} labels with "
              f"dim <= {args.max_dim}, {ok} pass the relation check",
              file=out)
        for e in entries:
            mark = "ok" if e["valid"] else "INVALID"
            print(f"  {e['side']}  {e['label']:<28} dim {e['dim']:>3}  "
                  f"{mark}", file=out)
    return 0 if all(e["valid"] for e in entries) else 3


# ---------------------------------------------------------------- batch

def _batch_worker(text):
    """One batch job from its own JSON text; fully self-contained."""
    try:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad job JSON: {exc}") from exc
        job = JobSpec.from_json(obj)
        job.options["verify"] = True
        report = run_job(job)
        code = 0 if report.verification["status"] == "PASS" else 3
        return code, _dump(report.to_json(), False)
    except UsageError as exc:
        return 1, _dump({"schema": SCHEMA, "error": f"usage: {exc}"}, False)
    except ValueError as exc:
        return 2, _dump({"schema": SCHEMA, "error": str(exc)}, False)
    except Exception as exc:  # malformed job; never end the batch
        return 1, _dump({"schema": SCHEMA,
                         "error": f"bad job: {type(exc).__name__}: {exc}"},
                        False)


def _run_batch(path, out):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            content = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read batch file: {exc}") from exc
    stripped = content.strip()
    if not stripped:
        raise UsageError("batch file is empty")
    if stripped.startswith("["):
        try:
            jobs = [json.dumps(item, sort_keys=True)
                    for item in json.loads(stripped)]
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad batch JSON: {exc}") from exc
    else:
        jobs = [line for line in stripped.splitlines() if line.strip()]
    workers = min(len(jobs), os.cpu_count() or 1)
    if workers == 1 or not hasattr(os, "fork"):
        results = [_batch_worker(text) for text in jobs]
    else:
        # every job verifies: load the verify stack once, before the
        # children fork, so that no child imports it again
        from . import oracle, repbuilder  # noqa: F401
        from ._forked import run_forked
        # the worker as this module holds it now, wrapped or patched
        results = run_forked(jobs, workers, _batch_worker)
    code = 0
    for job_code, line in results:
        if job_code is None:    # the job's child died
            job_code = 2
            line = _dump({"schema": SCHEMA, "error": line}, False)
        print(line, file=out)
        code = max(code, job_code)
    return code


# ---------------------------------------------------------------- driver

def _build_parser():
    parser = _Parser(prog="a4diff", description=__doc__.splitlines()[0])
    common = _Parser(add_help=False)
    common.add_argument("--m", type=int, help="field degree (default 8)")
    common.add_argument("--modulus", type=int,
                        help="irreducible modulus mask (default built in)")
    common.add_argument("--trunc", type=int,
                        help="cap echoed theta lists at this many entries")
    common.add_argument("--json", action="store_true",
                        help="emit the canonical JSON report")
    common.add_argument("--pretty", action="store_true",
                        help="emit indented JSON")
    sub = parser.add_subparsers(dest="mode")

    for name, needs_alpha in (("analyze", True), ("hkg", True),
                              ("verify", False)):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--alpha", required=needs_alpha,
                       help="rational function as JSON or @file")
        if name == "verify":
            p.add_argument("--batch",
                           help="file of jobs (JSON lines or array), "
                                "run in parallel")
        else:
            p.add_argument("--verify", action="store_true",
                           help="also rebuild by matrices and confirm")

    pz = sub.add_parser("zoo", parents=[common])
    pz.add_argument("--max-dim", type=int, default=8)
    pz.add_argument("--side", choices=("kH", "kG", "both"), default="both")
    pz.add_argument("--label", help="dump this one label with matrices")

    pe = sub.add_parser("examples", parents=[common])
    pe.add_argument("--which", type=int, required=True,
                    help="closed-form family: 1, 2 or 3")
    pe.add_argument("--n", type=int, default=1)
    pe.add_argument("--x", type=int, default=1)
    pe.add_argument("--psi", type=int,
                    help="band root mask for family 3 (chosen if absent)")
    pe.add_argument("--verify", action="store_true")
    return parser


def run_cli(argv=None):
    """Entry point; returns the exit code instead of raising SystemExit."""
    out = sys.stdout
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.mode is None:
            raise UsageError("a subcommand is required "
                             "(analyze, hkg, verify, zoo, examples)")
        if args.mode == "zoo":
            return _run_zoo(args, out)
        if args.mode == "verify" and args.batch:
            if args.alpha:
                raise UsageError("--batch and --alpha are exclusive")
            return _run_batch(args.batch, out)

        field = _field_from_args(args)
        options = {"trunc": args.trunc}
        if args.mode == "examples":
            options["example"] = {"which": args.which, "n": args.n,
                                  "x": args.x, "psi": args.psi}
            if args.psi is None:
                del options["example"]["psi"]
            if args.which != 1:
                del options["example"]["x"]
            alpha = None
        else:
            if not args.alpha:
                raise UsageError(f"{args.mode} needs --alpha")
            alpha = _parse_alpha_arg(field, args.alpha)
        if getattr(args, "verify", False):
            options["verify"] = True
        job = JobSpec(field, alpha, args.mode, options)
        report = run_job(job)
        if args.json or args.pretty:
            print(_dump(report.to_json(), args.pretty), file=out)
        else:
            _human_report(report, out)
        if report.verification != "skipped" and \
                report.verification["status"] != "PASS":
            return 3
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:      # argparse -h
        return int(exc.code or 0)


def main():
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
