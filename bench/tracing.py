"""Per-layer spans around the public functions of the cherednik package.

The wrappers are installed from outside the package, after it has been
imported: each target is replaced in its defining module or class and in
every ``cherednik.*`` module namespace that bound the same object by
``from ... import``.  A span records its name, start, end and parent; a
layer's self time is its duration minus the time covered by traced
children.  Operator-level targets (``hot``) are called millions of times,
so they are only counted and timed, not kept as span records.

Nothing here is imported by the package, and nothing is wrapped until
``install`` is called, which the untraced benchmark run never does.
"""
import functools
import json
import sys
import time

CLI_COMMANDS = ("verify", "dirac-cohomology", "partition", "unitarity",
                "export-group", "pbw-check")


def _partition_name(group, c):
    return f"calogero_moser.dirac_partition.{group.catalogue_id}"


def _rref_sizes(sizes, args, result):
    m = args[0]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    sizes["linalg.rref.entries"] += rows * cols
    sizes["linalg.rref.nonzeros"] += sum(1 for row in m for x in row if x)
    sizes["linalg.rref.rank"] += len(result[1])
    sizes["linalg.rref.max_rows"] = max(sizes["linalg.rref.max_rows"], rows)
    sizes["linalg.rref.max_cols"] = max(sizes["linalg.rref.max_cols"], cols)


def _cohomology_sizes(sizes, args, result):
    sizes["modules.dirac_cohomology.kernel_dim"] += result["kernel_dim"]
    sizes["modules.dirac_cohomology.image_dim"] += result["image_dim"]
    sizes["modules.dirac_cohomology.window_cells"] += len(result["window"])


# (module, attribute or Class.attribute, span name, hot, namer, sizer)
TARGETS = [
    ("groups", "build_group", "groups.build_group", False, None, None),
    ("scalars", "CyclotomicScalar.__mul__", "scalars.mul", True, None, None),
    ("scalars", "CyclotomicScalar.inverse", "scalars.inverse", True,
     None, None),
    ("linalg", "rref", "linalg.rref", False, None, _rref_sizes),
    ("linalg", "nullspace", "linalg.nullspace", False, None, None),
    ("linalg", "column_space_basis", "linalg.column_space_basis", False,
     None, None),
    ("linalg", "subspace_intersection", "linalg.subspace_intersection",
     False, None, None),
    ("linalg", "psd_report", "linalg.psd_report", False, None, None),
    ("poly", "wedge_matrix", "poly.wedge_matrix", False, None, None),
    ("clifford", "CliffordElement.__mul__", "clifford.mul", True, None, None),
    ("clifford", "pin_tau", "clifford.pin_tau", False, None, None),
    ("clifford", "spin_action", "clifford.spin_action", False, None, None),
    ("pbw", "AlgebraElement.__mul__", "pbw.mul", True, None, None),
    ("pbw", "pbw_check", "pbw.pbw_check", False, None, None),
    ("pbw", "cherednik_family", "pbw.cherednik_family", False, None, None),
    ("dirac", "TensorElement.__mul__", "dirac.tensor_mul", True, None, None),
    ("dirac", "derivation_d", "dirac.derivation_d", False, None, None),
    ("dirac", "delta_element", "dirac.delta_element", False, None, None),
    ("dirac", "decompose_kernel_element", "dirac.decompose_kernel_element",
     False, None, None),
    ("dirac", "verify_dirac_square", "dirac.verify_dirac_square", False,
     None, None),
    ("modules", "dirac_cohomology", "modules.dirac_cohomology", False,
     None, _cohomology_sizes),
    ("modules", "DiracOperatorMatrix.w_cell", "modules.w_cell", False,
     None, None),
    ("modules", "GradedModule.action_blocks", "modules.action_blocks", False,
     None, None),
    ("modules", "baby_verma", "modules.baby_verma", False, None, None),
    ("modules", "one_dimensional_quotient", "modules.one_dimensional_quotient",
     False, None, None),
    ("modules", "unitarity_report", "modules.unitarity_report", False,
     None, None),
    ("calogero_moser", "dirac_partition", None, False, _partition_name, None),
    ("calogero_moser", "verify_cm_factorization",
     "calogero_moser.verify_cm_factorization", False, None, None),
] + [("cli", "cmd_" + cmd.replace("-", "_"), "cli." + cmd, False, None, None)
     for cmd in CLI_COMMANDS]

SIZE_KEYS = ("linalg.rref.entries", "linalg.rref.nonzeros", "linalg.rref.rank",
             "linalg.rref.max_rows", "linalg.rref.max_cols",
             "modules.dirac_cohomology.kernel_dim",
             "modules.dirac_cohomology.image_dim",
             "modules.dirac_cohomology.window_cells")


class Tracer:
    """Spans and per-name totals for one process."""

    def __init__(self):
        self.stack = []   # open frames: [span id, seconds covered by children]
        self.stats = {}   # name -> [calls, self seconds, total seconds]
        self.sizes = dict.fromkeys(SIZE_KEYS, 0)
        self.spans = []   # (id, parent id, name, start, end)

    def wrap(self, fn, name, hot, namer=None, sizer=None):
        stack, stats, spans, sizes = (self.stack, self.stats, self.spans,
                                      self.sizes)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = namer(*args, **kwargs) if namer else name
            parent = stack[-1][0] if stack else None
            if hot:
                sid = parent
            else:
                sid = len(spans)
                spans.append(None)
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                st = stats.get(label)
                if st is None:
                    st = stats[label] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += duration - frame[1]
                st[2] += duration
                if not hot:
                    spans[sid] = (sid, parent, label, start, end)
                if stack:
                    stack[-1][1] += duration
            if sizer is not None:
                t0 = clock()
                sizer(sizes, args, result)
                if stack:
                    # the size scan is tracer work: keep it out of the
                    # enclosing span's self time
                    stack[-1][1] += clock() - t0
            return result

        return traced

    def install(self):
        """Wrap every target in the already imported package."""
        import cherednik.cli  # noqa: F401  (loads every layer)

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cherednik" or name.startswith("cherednik.")]
        for modname, attr, name, hot, namer, sizer in TARGETS:
            owner = sys.modules["cherednik." + modname]
            cls = None
            if "." in attr:
                clsname, attr = attr.split(".")
                cls = owner = getattr(owner, clsname)
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, hot, namer, sizer)
            if cls is not None:
                # also catches aliases such as __rmul__ = __mul__
                for key, value in list(vars(cls).items()):
                    if value is original:
                        setattr(cls, key, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        return self

    def dump(self):
        return {"stats": self.stats, "sizes": self.sizes,
                "spans": self.spans}


def install():
    return Tracer().install()


def merge(dumps):
    """Sum per-name totals and sizes over several process dumps; sizes
    named max_* take the maximum."""
    stats, sizes = {}, dict.fromkeys(SIZE_KEYS, 0)
    for d in dumps:
        for name, (calls, self_s, total_s) in d["stats"].items():
            st = stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += self_s
            st[2] += total_s
        for key, value in d["sizes"].items():
            if key.rsplit(".", 1)[1].startswith("max_"):
                sizes[key] = max(sizes[key], value)
            else:
                sizes[key] += value
    return stats, sizes


def write_spans(path, dumps):
    """Write every span as one JSON line; spans of one process share a
    request id (the index of its dump)."""
    with open(path, "w") as fh:
        for request, d in enumerate(dumps):
            for sid, parent, name, start, end in d["spans"]:
                fh.write(json.dumps({"request": request, "id": sid,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
