"""Span tracer for the traced benchmark run.

The tracer replaces the public functions of each sigmaconics module, and a
few public methods, by wrappers that record a span (name, start, end, parent)
per call.  A function is replaced in every module namespace that binds it,
because callers look it up there (census binds absolute_mask by name, the
CLI binds census and mrd functions); methods are replaced on the class.
Spans stay in memory and are written out once, when the job ends.

The scalar field operations are called far too often for spans: they are
only counted.  Nothing in sigmaconics is edited; the wrappers live here.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

LAYERS = ("fields", "linalg", "projective", "forms", "cfsets", "classify",
          "mrd", "census", "cli")

# public methods that get spans, by (module, class)
SPAN_METHODS = {
    ("fields", "FieldTower"): ("vadd", "vneg", "vsub", "vmul", "vinv",
                               "vfrobq", "vsigma", "vnorm", "pow_table"),
    ("projective", "ProjectiveSpace"): ("incidence", "normalize_rows",
                                        "index_rows", "line_points",
                                        "point_lines", "pencil",
                                        "line_through", "collinear",
                                        "is_fq_subline", "canonical_subplane"),
    ("census", "PlaneKernel"): ("row_encode", "renc_add", "masks", "counts"),
}
SCALAR_METHODS = ("add", "sub", "mul", "inv")
# spans whose output size is summed as the work they did
SIZED = ("fields.vadd", "fields.vmul", "projective.index_rows", "census.masks")

# per-layer time metrics: total time of the outermost spans of the group
GROUPS = {
    "fields.vadd.s": ("fields.vadd",),
    "fields.vmul.s": ("fields.vmul",),
    "fields.build_field.s": ("fields.build_field",),
    "linalg.s": ("linalg.row_reduce", "linalg.mat_inv", "linalg.mat_mul"),
    "projective.index_rows.s": ("projective.index_rows",),
    "projective.normalize_rows.s": ("projective.normalize_rows",),
    "projective.incidence.s": ("projective.incidence",),
    "forms.absolute_mask.s": ("forms.absolute_mask",),
    "forms.collineation_images.s": ("forms.collineation_images",),
    "classify.classify_plane_form.s": ("classify.classify_plane_form",),
    "classify.kestenband_profile.s": ("classify.kestenband_profile",),
    "classify.line_spectrum.s": ("classify.line_spectrum",),
    "classify.lines_points_array.s": ("classify.lines_points_array",),
    "cfsets.verify_exterior.s": ("cfsets.verify_exterior",),
    "cfsets.build.s": ("cfsets.cf_canonical", "cfsets.embed_subplane_in_component",
                       "cfsets.exterior_set"),
    "census.plane_kernel.s": ("census.plane_kernel",),
    "census.masks.s": ("census.masks",),
    "mrd.min_rank_distance.s": ("mrd.min_rank_distance",),
    "mrd.build_code.s": ("mrd.build_code",),
    "mrd.nonlinearity_witness.s": ("mrd.nonlinearity_witness",),
}
# per-layer call counts: number of spans of that name
CALLS = {
    "forms.absolute_mask.calls": "forms.absolute_mask",
    "census.renc_add.calls": "census.renc_add",
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_of = array("i")      # span -> index into names
        self.start = array("q")        # perf_counter_ns at entry
        self.end = array("q")
        self.parent = array("i")       # enclosing span, -1 for none
        self.stack: list[int] = []
        self.sizes = dict.fromkeys(SIZED, 0)
        self.scalar_calls = 0
        self.enumerated = 0            # matrices yielded by the rank <= 2 enumerator
        self.ranked = 0                # difference matrices ranked by mrd

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        name_of, start, end, parent = self.name_of, self.start, self.end, self.parent
        stack, clock = self.stack, time.perf_counter_ns
        sized = name in self.sizes
        sizes = self.sizes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name_of.append(idx)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if sized:
                sizes[name] += int(np.size(out))
            return out
        return wrapper

    def _count_scalar(self, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            self.scalar_calls += 1
            return fn(*args)
        return wrapper

    def _count_enumerated(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for block in fn(*args, **kwargs):
                self.enumerated += len(block)
                yield block
        return wrapper

    def _count_ranked(self, fn):
        @functools.wraps(fn)
        def wrapper(diff, p):
            self.ranked += len(diff)
            return fn(diff, p)
        return wrapper

    def install(self):
        """Wrap the library in place; call once, before any traced work."""
        mods = {layer: importlib.import_module(f"sigmaconics.{layer}")
                for layer in LAYERS}
        swap = {}                      # id(original) -> (original, wrapper)
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                swap[id(obj)] = (obj, self._span(f"{layer}.{name}", obj))
        census, mrd = mods["census"], mods["mrd"]
        for fn, make in ((census._enumerate_scalar_classes, self._count_enumerated),
                         (mrd._vector_ranks_mod_p, self._count_ranked)):
            swap[id(fn)] = (fn, make(fn))
        for namespace in (importlib.import_module("sigmaconics"), *mods.values()):
            for name, obj in list(vars(namespace).items()):
                hit = swap.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(namespace, name, hit[1])
        for (layer, cls_name), methods in SPAN_METHODS.items():
            cls = getattr(mods[layer], cls_name)
            for m in methods:
                setattr(cls, m, self._span(f"{layer}.{m}", getattr(cls, m)))
        tower = mods["fields"].FieldTower
        for m in SCALAR_METHODS:
            setattr(tower, m, self._count_scalar(getattr(tower, m)))

    # -- results ------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics over every span recorded so far.

        Self time of a span is its duration minus the durations of its direct
        children.  When spans nest (`trace.nesting_errors` is 0), the self
        times of all spans add up to the time the outermost spans cover, and
        `trace.unwrapped_s` is the rest of `wall_s`.
        """
        n = len(self.start)
        names = np.array(self.names, dtype=object)
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_ns = dur - child
        layer_of = np.array([nm.split(".")[0] for nm in self.names], dtype=object)
        out = {}
        for layer in LAYERS:
            ids = np.nonzero(layer_of == layer)[0]
            out[f"{layer}.self_s"] = float(self_ns[np.isin(name_of, ids)].sum()) / 1e9
        up = np.where(has_parent, parent, 0)
        out["trace.nesting_errors"] = int((has_parent & (
            (start < start[up]) | (end > end[up]))).sum()) if n else 0
        out["trace.spans"] = n
        out["trace.wall_s"] = wall_s
        out["trace.unwrapped_s"] = wall_s - float(dur[~has_parent].sum()) / 1e9

        # one pass marks, per span, the groups it or an ancestor belongs to
        bit_of_name = np.zeros(len(self.names), dtype=np.int64)
        for g, (key, members) in enumerate(GROUPS.items()):
            for k, nm in enumerate(names):
                if nm in members:
                    bit_of_name[k] |= 1 << g
        bits = bit_of_name[name_of].tolist()
        inside = [0] * n
        outer = [0] * n
        par = parent.tolist()
        for sid in range(n):
            above = inside[par[sid]] if par[sid] >= 0 else 0
            inside[sid] = bits[sid] | above
            outer[sid] = bits[sid] & ~above
        outer = np.array(outer, dtype=np.int64)
        for g, key in enumerate(GROUPS):
            out[key] = float(dur[(outer >> g) & 1 == 1].sum()) / 1e9
        for key, nm in CALLS.items():
            ids = np.nonzero(names == nm)[0]
            out[key] = int(np.isin(name_of, ids).sum())
        out["fields.vadd.cells"] = self.sizes["fields.vadd"]
        out["fields.vmul.cells"] = self.sizes["fields.vmul"]
        out["projective.index_rows.rows"] = self.sizes["projective.index_rows"]
        out["census.masks.cells"] = self.sizes["census.masks"]
        out["fields.scalar.calls"] = self.scalar_calls
        rank_fq = np.nonzero(names == "mrd.rank_fq")[0]
        out["mrd.pairs"] = self.ranked + int(np.isin(name_of, rank_fq).sum())
        out["census.enumerated"] = self.enumerated
        return out

    def write(self, path: str):
        """Write every span as `id name start_ns end_ns parent run_id`."""
        with open(path, "w") as fh:
            fh.write("# id\tname\tstart_ns\tend_ns\tparent\trun_id\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{self.names[self.name_of[sid]]}\t{self.start[sid]}\t"
                         f"{self.end[sid]}\t{self.parent[sid]}\t{self.run_id}\n")
