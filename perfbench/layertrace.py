"""Span and counter recorder that wraps the a4diff layers from outside.

The recorder replaces the public callables of every a4diff module (and the
few private ones a per-layer metric needs) with wrappers, everywhere a
module holds a reference to them.  A call records a span (name, start, end,
parent) when it crosses into another layer or when a metric times that
callable; any other call is only counted.  Calls into ``gf`` are only
counted: they are scalar operations, millions per job, and their time stays
in the calling layer.  Batch pool workers are forked with the wrappers in
place; each writes its spans after every job, and its root span points at
the parent process's open span.

Run as a script, it executes one a4diff command line in-process, prints the
same stdout and exit code as ``python -m a4diff.cli``, and writes the spans
and counters of every process as JSON lines:

    PYTHONPATH=src python3 perfbench/layertrace.py OUT.jsonl JOB_ID ARGS...
"""

import functools
import glob
import importlib
import inspect
import itertools
import json
import os
import sys
import time
from collections import defaultdict

# a4diff module -> layer name used in span and metric names
LAYERS = {
    "a4diff.gf": "gf",
    "a4diff.ratlaurent": "ratlaurent",
    "a4diff.artin_schreier": "artin_schreier",
    "a4diff.ramification": "ramification",
    "a4diff.decomp": "decomp",
    "a4diff.modulezoo": "modulezoo",
    "a4diff.oracle": "oracle",
    "a4diff.repbuilder": "repbuilder",
    "a4diff._linalg": "linalg",
    "a4diff._families": "families",
    "a4diff.cli": "cli",
}
COUNT_ONLY_LAYERS = {"gf"}

# private callables that a metric needs
PRIVATE = {
    "a4diff.gf": ["_pmulmod"],
    "a4diff.oracle": ["_klein_counts", "_a4_counts"],
    "a4diff.cli": ["_batch_worker"],
}
PRIVATE_METHODS = {"a4diff._linalg": {"Matrix": ["__matmul__"]}}

# spanned on every call, also from inside their own layer, because a
# per-layer metric times them or looks at their parent
ALWAYS = {
    "linalg.Matrix.__matmul__",
    "linalg.Matrix.rank",
    "linalg.Matrix.rref",
    "ratlaurent.RatFunc.laurent_at",
    "artin_schreier.check_a4_conditions",
    "artin_schreier.symmetrize_h",
    "ramification.analyze_branch_data",
    "decomp.kH_decomposition",
    "decomp.kG_decomposition",
    "modulezoo.validate_group_rep",
    "oracle.decompose_rep",
    "oracle._klein_counts",
    "oracle._a4_counts",
    "cli.run_job",
    "cli._batch_worker",
}
SCAN_SPANS = ("oracle._klein_counts", "oracle._a4_counts")
FIRST_CALL = "linalg.first_call"
MATMUL = "linalg.Matrix.__matmul__"

# every callable a per-layer metric reads; install() fails when one of them
# is gone, so that a renamed callable cannot make its metric read 0
REQUIRED = ALWAYS | {
    FIRST_CALL,
    "gf._pmulmod",
    "ratlaurent.poly_roots",
    "ratlaurent.trace_K_over_J",
    "artin_schreier.as_reduce",
    "oracle.hom_labels",
}


def _scan_hits(counts):
    """Tube and band parameters that an oracle scan located."""
    tubes = {_param_key(lab.param) for lab in counts
             if getattr(lab, "kind", None) == "EvenDim"}
    bands = {_param_key(lab.param) for lab in counts
             if getattr(lab, "kind", None) == "Band"}
    # each band parameter mu is found at its three cube roots phi
    return len(tubes) + 3 * len(bands)


def _param_key(param):
    return getattr(param, "mask", "inf")


class Tracer:
    """Spans and counters of one process, written out as JSON lines."""

    def __init__(self, out_path, job_id):
        self.out_path = out_path
        self.job_id = job_id
        self.pid = os.getpid()
        self.main_pid = self.pid
        self.root_parent = None
        self.ids = itertools.count()
        self.stack = []      # open spans: (id, layer)
        self.spans = []      # closed spans: (id, parent, name, start, end)
        self.counts = defaultdict(int)

    # -- wrapping --------------------------------------------------------

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def spanned(self, name, layer, fn, always, after=None):
        counts = self.counts
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if not always and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            sid = next(self.ids)
            parent = stack[-1][0] if stack else self.root_parent
            stack.append((sid, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append((sid, parent, name, start, end))
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _wrapper_for(self, name, layer, fn):
        if layer in COUNT_ONLY_LAYERS:
            return self.counted(name, fn)
        after = None
        if name == MATMUL:
            def after(args, result):
                a, b = args
                self.counts["linalg.matmul_temp_bytes"] += \
                    a.rows * a.cols * b.cols * 8
        elif name in SCAN_SPANS:
            def after(args, result):
                self.counts["oracle.scan_found"] += _scan_hits(result)
        elif name == "cli._batch_worker":
            def after(args, result):
                if os.getpid() != self.main_pid:
                    self.flush_part()
        return self.spanned(name, layer, fn, name in ALWAYS, after)

    def install(self):
        """Wrap every layer, then rebind each alias other modules hold."""
        swaps = {}
        wrapped = set()
        for modname, layer in LAYERS.items():
            mod = importlib.import_module(modname)
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isclass(obj) and not attr.startswith("_"):
                    methods = [m for m in vars(obj) if not m.startswith("_")]
                    methods += PRIVATE_METHODS.get(modname, {}).get(attr, [])
                    for meth in methods:
                        fn = vars(obj).get(meth)
                        if _wrappable(fn):
                            name = f"{layer}.{attr}.{meth}"
                            wrapped.add(name)
                            setattr(obj, meth,
                                    self._wrapper_for(name, layer, fn))
                elif _wrappable(obj) and (
                        not attr.startswith("_")
                        or attr in PRIVATE.get(modname, ())):
                    wrapped.add(f"{layer}.{attr}")
                    swaps[obj] = self._wrapper_for(f"{layer}.{attr}", layer,
                                                   obj)
            if modname == "a4diff._linalg" and "_field_tables" in vars(mod):
                wrapped.add(FIRST_CALL)
                swaps[mod._field_tables] = self._table_build(mod)
        missing = REQUIRED - wrapped
        if missing:
            raise RuntimeError("a4diff callables that per-layer metrics "
                               f"read are gone: {', '.join(sorted(missing))}")
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("a4diff"):
                for attr, obj in list(vars(mod).items()):
                    if _wrappable(obj) and obj in swaps:
                        setattr(mod, attr, swaps[obj])
        os.register_at_fork(after_in_child=self._forked)

    def _table_build(self, linalg):
        """Span only the calls that build the lazy exp/log tables."""
        fn = linalg._field_tables
        build = self.spanned(FIRST_CALL, "linalg", fn, True)

        @functools.wraps(fn)
        def wrapper(spec):
            if (spec.m, spec.modulus) in linalg._TABLES:
                return fn(spec)
            return build(spec)
        return wrapper

    def _forked(self):
        parent_pid = self.pid
        self.pid = os.getpid()
        self.root_parent = (f"{parent_pid}-{self.stack[-1][0]}"
                            if self.stack else None)
        self.stack.clear()
        self.spans.clear()
        self.counts.clear()

    # -- output ------------------------------------------------------------

    def lines(self):
        for sid, parent, name, start, end in self.spans:
            if isinstance(parent, int):
                parent = f"{self.pid}-{parent}"
            yield json.dumps({"job": self.job_id, "pid": self.pid,
                              "id": f"{self.pid}-{sid}", "parent": parent,
                              "name": name, "start": start, "end": end})
        yield json.dumps({"job": self.job_id, "pid": self.pid,
                          "counters": dict(self.counts)})

    def flush_part(self):
        """Append this worker's records to its own part file and reset."""
        with open(f"{self.out_path}.{self.pid}.part", "a") as fh:
            for line in self.lines():
                fh.write(line + "\n")
        self.spans.clear()
        self.counts.clear()

    def write(self):
        """Write the main process's records, then fold in the workers'."""
        with open(self.out_path, "w") as fh:
            for line in self.lines():
                fh.write(line + "\n")
            for part in sorted(glob.glob(glob.escape(self.out_path)
                                         + ".*.part")):
                with open(part) as src:
                    fh.write(src.read())
                os.remove(part)


def _wrappable(obj):
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


def read_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summarize(records, wall_s):
    """Per-layer metrics of one traced command from its spans and counters.

    A span's self time is the part of its duration that none of its child
    spans covers.  Children in one process never overlap; children in pool
    workers run side by side while the parent waits for them.
    """
    spans = [r for r in records if "name" in r]
    counts = defaultdict(int)
    for r in records:
        for key, value in r.get("counters", {}).items():
            counts[key] += value
    by_id = {s["id"]: s for s in spans}
    intervals = defaultdict(list)
    for s in spans:
        if s["parent"] in by_id:
            intervals[s["parent"]].append((s["start"], s["end"], s["name"]))
    total = defaultdict(float)
    own = defaultdict(float)
    layer_self = defaultdict(float)
    for s in spans:
        dur = s["end"] - s["start"]
        mine = dur - _covered(s["start"], s["end"], intervals[s["id"]])
        total[s["name"]] += dur
        own[s["name"]] += mine
        layer_self[s["name"].split(".")[0]] += mine

    def decompose_s(counter_span):
        return sum((s["end"] - s["start"] for s in spans
                    if s["name"] == "oracle.decompose_rep"
                    and any(name == counter_span
                            for _, _, name in intervals[s["id"]])), 0.0)

    scan_ranks = sum(1 for s in spans if s["name"] == "linalg.Matrix.rank"
                     and by_id.get(s["parent"], {}).get("name") in SCAN_SPANS)
    job_spans = [s for s in spans if s["name"] == "cli.run_job"]
    workers = len({s["pid"] for s in job_spans}) or 1
    out = {
        "linalg.matmul_calls": counts[MATMUL],
        "linalg.matmul_s": own[MATMUL],
        "linalg.matmul_temp_mb": counts["linalg.matmul_temp_bytes"] / 1e6,
        "linalg.rank_calls": counts["linalg.Matrix.rank"],
        "linalg.rank_s": own["linalg.Matrix.rank"],
        "linalg.rref_calls": counts["linalg.Matrix.rref"],
        "linalg.rref_s": own["linalg.Matrix.rref"],
        "linalg.first_call_s": total[FIRST_CALL],
        "gf.mul_calls": counts["gf._pmulmod"],
        "ratlaurent.poly_roots_calls": counts["ratlaurent.poly_roots"],
        "ratlaurent.laurent_at_calls":
            counts["ratlaurent.RatFunc.laurent_at"],
        "ratlaurent.laurent_at_s": total["ratlaurent.RatFunc.laurent_at"],
        "ratlaurent.trace_calls": counts["ratlaurent.trace_K_over_J"],
        "artin_schreier.precheck_s":
            total["artin_schreier.check_a4_conditions"],
        "artin_schreier.symmetrize_s": total["artin_schreier.symmetrize_h"],
        "artin_schreier.as_reduce_calls": counts["artin_schreier.as_reduce"],
        "ramification.analyze_s": total["ramification.analyze_branch_data"],
        "decomp.closed_form_s": (total["decomp.kH_decomposition"]
                                 + total["decomp.kG_decomposition"]),
        "repbuilder.build_s": layer_self["repbuilder"],
        "modulezoo.validate_calls": counts["modulezoo.validate_group_rep"],
        "modulezoo.validate_s": total["modulezoo.validate_group_rep"],
        "oracle.decompose_kG_s": decompose_s("oracle._a4_counts"),
        "oracle.decompose_kH_s": decompose_s("oracle._klein_counts"),
        "oracle.scan_rank_calls": scan_ranks,
        "oracle.scan_hit_ratio": (counts["oracle.scan_found"] / scan_ranks
                                  if scan_ranks else 0.0),
        "oracle.hom_labels_calls": counts["oracle.hom_labels"],
        "cli.batch_busy_frac": (sum(s["end"] - s["start"] for s in job_spans)
                                / (workers * wall_s)),
    }
    for layer in LAYERS.values():
        if layer not in COUNT_ONLY_LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
    return out


def _covered(start, end, children):
    """Length of [start, end] that the union of the child intervals covers."""
    covered = 0.0
    reach = start
    for lo, hi, _ in sorted(children):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def main(argv):
    out_path, job_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(out_path, job_id)
    tracer.install()
    cli = importlib.import_module("a4diff.cli")
    code = cli.run_cli(cli_args)
    sys.stdout.flush()
    tracer.write()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
