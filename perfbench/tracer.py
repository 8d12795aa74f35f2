"""Per-layer tracing from outside the package.

While a ``Tracer`` is active, every public function of tabrec.core,
tabrec.taquin, tabrec.reconstruct, tabrec.census and tabrec.cli, plus a
few methods (tableau and deck constructors, deck parsing and printing),
is replaced by a timing wrapper in every tabrec module that holds it.
Modules are taken from ``sys.modules`` because the package re-exports
``census`` the function under the name of the module.

Each wrapped call adds its duration to its caller's child time, so self
time is exact without post-processing.  Calls made once per tableau or
per deletion (``HOT``) only add to counts and totals; every other call
also records a span, kept in memory and written out by ``write_spans``.
"""

import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("core", "taquin", "reconstruct", "census", "cli")

METHODS = {
    "core": {"StandardTableau": ("__init__",)},
    "taquin": {
        "Deck": ("__init__", "from_text", "to_text"),
        "DeckMultiset": ("__init__", "from_text", "to_text"),
    },
}

HOT = {
    "core.StandardTableau.__init__",
    "core.check_partition",
    "core.conjugate",
    "core.is_rectangular",
    "core.outer_corners",
    "core.shape_union",
    "census.involution_count",
    "taquin.delete_entry",
    "taquin.slide_path",
    "taquin.Deck.__init__",
    "taquin.DeckMultiset.__init__",
}

# names whose time is totalled together, outermost call only
GROUPS = {
    "core.enumerate_syt": "core.enumerate",
    "core.enumerate_syt_all": "core.enumerate",
    "core.enumerate_partitions": "core.enumerate",
    "taquin.Deck.from_text": "taquin.from_text",
    "taquin.DeckMultiset.from_text": "taquin.from_text",
    "taquin.Deck.to_text": "taquin.deck_text",
    "taquin.DeckMultiset.to_text": "taquin.deck_text",
}

MAX_SPANS = 50_000


class Tracer:
    """Context manager: wraps the package on entry, restores it on exit."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)  # by group, outermost calls only
        self.self_time = defaultdict(float)
        self.edge_calls = defaultdict(int)  # (caller, callee) -> calls
        self.edge_time = defaultdict(float)  # (caller, callee) -> callee time
        self.spans = []
        self.spans_dropped = 0
        self._depth = defaultdict(int)
        self._stack = []
        self._patches = []
        self._next_id = 0
        self._origin = time.perf_counter()

    def __enter__(self):
        package = [m for k, m in sys.modules.items() if k == "tabrec" or k.startswith("tabrec.")]
        for layer in LAYERS:
            module = sys.modules[f"tabrec.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for holder in package:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, name, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for attr in methods:
                    raw = cls.__dict__[attr]
                    name = f"{layer}.{cls_name}.{attr}"
                    if isinstance(raw, classmethod):
                        self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                    else:
                        self._patch(cls, attr, self._wrap(name, raw))
        return self

    def __exit__(self, *exc):
        for holder, name, value in reversed(self._patches):
            setattr(holder, name, value)
        self._patches.clear()

    def _patch(self, holder, name, value):
        self._patches.append((holder, name, vars(holder)[name]))
        setattr(holder, name, value)

    def _wrap(self, name, fn):
        hot = name in HOT
        group = GROUPS.get(name, name)
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        def enter():
            depth[group] += 1
            frame = [0.0, name, self._next_id]
            self._next_id += 1
            stack.append(frame)
            return frame

        def leave(frame, start):
            elapsed = clock() - start
            stack.pop()
            depth[group] -= 1
            if not depth[group]:
                self.total[group] += elapsed
            self.self_time[name] += elapsed - frame[0]
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[0] += elapsed
                self.edge_calls[parent[1], name] += 1
                self.edge_time[parent[1], name] += elapsed
            if hot:
                return
            if len(self.spans) < MAX_SPANS:
                self.spans.append((
                    frame[2], parent[2] if parent else None, name,
                    start - self._origin, elapsed,
                ))
            else:
                self.spans_dropped += 1

        if inspect.isgeneratorfunction(fn):
            # time each resumption; the consumer's work between items is not ours
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                gen = fn(*args, **kwargs)
                while True:
                    frame = enter()
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        leave(frame, start)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                frame = enter()
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame, start)

        return wrapper

    def layer_self_times(self):
        """Self time summed by layer."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, value in self.self_time.items():
            out[name.split(".", 1)[0]] += value
        return out

    def metrics(self, passes):
        """Per-layer metrics: per pass, except the ratio and per-request ones."""
        t, c, s = self.total, self.calls, self.self_time
        recheck = sum(
            value for (caller, callee), value in self.edge_time.items()
            if caller.startswith("reconstruct.reconstruct_from_")
            and callee in ("taquin.minor_set", "taquin.minor_multiset")
        )
        base = "reconstruct.reconstruct_base"
        levels = c["reconstruct.reduce_deck"] + c[base] - self.edge_calls[base, base]
        values = {
            "core.tableaux_validated": c["core.StandardTableau.__init__"],
            "core.enumerate_s": t["core.enumerate"],
            "core.from_text_s": t["taquin.from_text"],
            "taquin.delete_entry_calls": c["taquin.delete_entry"],
            "taquin.delete_entry_s": t["taquin.delete_entry"],
            "taquin.decks_built": c["taquin.Deck.__init__"] + c["taquin.DeckMultiset.__init__"],
            "taquin.minor_set_s": t["taquin.minor_set"],
            "taquin.minor_multiset_s": t["taquin.minor_multiset"],
            "taquin.deck_text_s": t["taquin.deck_text"],
            "reconstruct.shape_calls": c["reconstruct.reconstruct_shape"],
            "reconstruct.shape_s": t["reconstruct.reconstruct_shape"],
            "reconstruct.locate_max_s": t["reconstruct.locate_max"],
            "reconstruct.reduce_deck_s": t["reconstruct.reduce_deck"],
            "reconstruct.base_s": t[base],
            "reconstruct.recheck_s": recheck,
            "census.merge_s": s["census.census"],
            "census.h1_pairs_s": s["census.compute_H1_exact"],
        }
        values = {k: v / passes for k, v in values.items()}
        values["reconstruct.shape_calls_per_level"] = (
            c["reconstruct.reconstruct_shape"] / levels if levels else 0.0
        )
        values["cli.self_ms_per_request"] = (
            1000 * s["cli.run"] / c["cli.run"] if c["cli.run"] else 0.0
        )
        return values

    def write_spans(self, path):
        """Spans as JSON lines: id, parent id, name, start s, duration s."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
