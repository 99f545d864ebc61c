"""Spans and counters around calls into supergaudin's layers.

The benchmark installs wrappers from here; the program itself carries no
tracing.  A target is a module-level function or a method.  A function is
patched in every supergaudin module that binds it (``from x import f``
makes a binding of its own) and in module-level lists and dicts, so
registries such as ``verify.ALL_CHECKS`` call the wrapper too.  A method
is patched on its class, which covers every caller.

Self time of a span is its duration minus the time its child spans cover.
Spans stay in memory (up to ``span_limit``) and are written by the caller
when the run ends.  Work the tracer does after a call returns (hit
detection, matrix statistics) is charged to no span.
"""

import functools
import importlib
import sys
import time

PACKAGE = "supergaudin"
WRAPPED = "__perfbench_wrapped__"


def _pair_stats(stat, args, kwargs, result):
    if result is None:
        return
    stat["entries"] += len(result) * (len(result[0]) if result else 0)
    stat["nonzeros"] += sum(1 for row in result for x in row if x)


def _tensor_stats(stat, args, kwargs, result):
    stat["basis_dim"] += result.total_dim


def _singular_stats(stat, args, kwargs, result):
    module, mu = args[0], args[1]
    stat["ambient_dim"] += module.dim(mu)
    stat["dim"] += result.dim


def _charpoly_stats(stat, args, kwargs, result):
    stat["max_dim"] = max(stat["max_dim"], len(args[0]))


def _hits(key_fn):
    """A call is a hit when it returns the very object an earlier call with
    the same key returned: observable from outside, whatever the cache."""

    def observe(stat, args, kwargs, result):
        seen = stat.setdefault("_seen", {})
        key = key_fn(args)
        if key in seen and seen[key] is result:
            stat["hits"] += 1
        seen[key] = result

    return observe


VERIFY_CHECKS = (
    "structure",
    "hamiltonians",
    "modules",
    "duality",
    "duality_cubic",
    "lax",
    "cyclic",
    "central_shift",
    "kz",
    "truncation",
    "io",
)

# (metric prefix, module, attribute path, extra counters, observer)
TARGETS = [
    ("modules.polynomial_module", "modules", "polynomial_module", ("hits",),
     _hits(lambda a: (a[0], a[1]))),
    ("modules.irreducible_truncated", "modules", "irreducible_truncated", (), None),
    ("modules.tensor_product", "modules", "tensor_product", ("basis_dim",), _tensor_stats),
    ("modules.singular_space", "modules", "singular_space", ("ambient_dim", "dim"),
     _singular_stats),
    ("modules.TensorModule.slot_act_sparse", "modules", "TensorModule.slot_act_sparse",
     ("hits",), _hits(lambda a: (a[0], a[1], a[2], a[3]))),
    ("gaudin.pair_matrix", "gaudin", "pair_matrix", ("entries", "nonzeros"), _pair_stats),
    ("gaudin.HamiltonianFamily.matrix", "gaudin", "HamiltonianFamily.matrix", ("hits",),
     _hits(lambda a: (a[0], a[1], a[2]))),
    ("gaudin.restrict_to_basis", "gaudin", "restrict_to_basis", (), None),
    ("linalg.charpoly", "linalg", "charpoly", ("max_dim",), _charpoly_stats),
    ("kernels.mat_mul", "kernels", "mat_mul", (), None),
    ("kernels.int_rref", "kernels", "int_rref", (), None),
    ("kernels.int_nullspace", "kernels", "int_nullspace", (), None),
    ("duality.build_setup", "duality", "build_setup", (), None),
    ("duality.spectrum_match", "duality", "spectrum_match", (), None),
    ("kz.KZSystem", "kz", "KZSystem.__init__", (), None),
    ("kz.KZSystem.hamiltonian_float", "kz", "KZSystem.hamiltonian_float", (), None),
    ("kz.integrate_path", "kz", "integrate_path", (), None),
    ("kz.monodromy", "kz", "monodromy", (), None),
    ("laxmatrix.lax_str_expansion", "laxmatrix", "lax_str_expansion", (), None),
    ("serialize.dumps", "serialize", "dumps", (), None),
] + [
    ("verify.check_" + name, "verify", "check_" + name, (), None) for name in VERIFY_CHECKS
]

# Counted only: constructions are too frequent to time one by one.
COUNTED = [("weights.Weight", "weights", "Weight.__init__")]


def _resolve(module_name, path):
    obj = importlib.import_module("%s.%s" % (PACKAGE, module_name))
    owner = None
    for part in path.split("."):
        owner = obj
        obj = getattr(obj, part, None)
        if obj is None:
            return None, None
    return owner, obj


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _rebind(old, new):
    """Replace every binding of ``old`` in package modules by ``new``."""
    for mod in _package_modules():
        space = vars(mod)
        for name, value in list(space.items()):
            if value is old:
                space[name] = new
            elif isinstance(value, list):
                for k, item in enumerate(value):
                    if item is old:
                        value[k] = new
            elif isinstance(value, dict):
                for k, item in list(value.items()):
                    if item is old:
                        value[k] = new


def find_wrappers():
    """Names of package bindings that still hold a benchmark wrapper."""
    found = []
    for mod in _package_modules():
        for name, value in vars(mod).items():
            candidates = [value]
            if isinstance(value, type):
                candidates = list(vars(value).values())
            elif isinstance(value, list):
                candidates = value
            elif isinstance(value, dict):
                candidates = list(value.values())
            if any(getattr(c, WRAPPED, False) for c in candidates):
                found.append("%s.%s" % (mod.__name__, name))
    return sorted(set(found))


class Tracer:
    """Installs wrappers, records spans and per-target statistics."""

    def __init__(self, span_limit=100_000):
        self.span_limit = span_limit
        self.names = []
        self.stats = {}
        self.spans = []
        self.dropped = 0
        self.missing = []
        self._stack = []
        self._undo = []

    def _stat(self, prefix, extras):
        self.names.append(prefix)
        stat = {"calls": 0, "self_s": 0.0, "id": len(self.names) - 1}
        for extra in extras:
            stat[extra] = 0
        self.stats[prefix] = stat
        return stat

    def _span_wrapper(self, orig, stat, observe):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        ident = stat["id"]

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            if len(spans) < self.span_limit:
                index = len(spans)
                spans.append([ident, parent, 0.0, 0.0])
            else:
                index = -1
                self.dropped += 1
            frame = [clock(), 0.0, index]
            stack.append(frame)
            try:
                result = orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                start, covered = frame[0], frame[1]
                stat["calls"] += 1
                stat["self_s"] += (end - start) - covered
                if index >= 0:
                    spans[index][2] = start
                    spans[index][3] = end
            if observe is not None:
                observe(stat, args, kwargs, result)
            if stack:
                stack[-1][1] += clock() - start
            return result

        setattr(wrapper, WRAPPED, True)
        return wrapper

    @staticmethod
    def _count_wrapper(orig, stat):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stat["calls"] += 1
            return orig(*args, **kwargs)

        setattr(wrapper, WRAPPED, True)
        return wrapper

    def _install_one(self, prefix, module_name, path, extras, observe, counted):
        stat = self._stat(prefix, extras)
        owner, orig = _resolve(module_name, path)
        if orig is None:
            self.missing.append(prefix)
            return
        if counted:
            wrapper = self._count_wrapper(orig, stat)
        else:
            wrapper = self._span_wrapper(orig, stat, observe)
        if isinstance(owner, type):
            attr = path.rsplit(".", 1)[1]
            own = attr in vars(owner)
            setattr(owner, attr, wrapper)
            self._undo.append(("attr", owner, attr, orig if own else None, wrapper))
        else:
            _rebind(orig, wrapper)
            self._undo.append(("bind", None, None, orig, wrapper))

    def install(self):
        for prefix, module_name, path, extras, observe in TARGETS:
            self._install_one(prefix, module_name, path, extras, observe, False)
        for prefix, module_name, path in COUNTED:
            self._install_one(prefix, module_name, path, (), None, True)

    def uninstall(self):
        """Restore every original binding, including ones made after
        install by modules imported while tracing."""
        for kind, owner, attr, orig, wrapper in reversed(self._undo):
            if kind == "attr" and orig is None:
                delattr(owner, attr)
            elif kind == "attr":
                setattr(owner, attr, orig)
            else:
                _rebind(wrapper, orig)
        self._undo = []

    def metrics(self):
        """Per-target statistics under ``<target>.<stat>`` names."""
        counted = {prefix for prefix, _, _ in COUNTED}
        out = {}
        for prefix, stat in self.stats.items():
            out[prefix + ".calls"] = stat["calls"]
            if prefix not in counted:
                out[prefix + ".self_s"] = stat["self_s"]
            for key, value in stat.items():
                if key in ("calls", "self_s", "id", "_seen"):
                    continue
                if key == "hits":
                    out[prefix + ".hit_ratio"] = value / stat["calls"] if stat["calls"] else 0.0
                else:
                    out[prefix + "." + key] = value
        return out

    def span_document(self):
        return {
            "names": self.names,
            "fields": ["name", "parent", "start", "end"],
            "spans": self.spans,
            "dropped": self.dropped,
            "missing": self.missing,
        }
