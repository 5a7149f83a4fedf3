"""Traced runs: spans and counts at every layer boundary of the package.

Every public module-level function of the package's layers is wrapped, in
every module that binds it (`sing_smooth` imports `enumerate_loci` by name,
for example), so intra-module calls are boundaries too.  The CLI module is
one layer whose boundary is `main`: its parsing, rendering and JSON output
count as `cli.main` self time.

A span is (name, start, end, parent).  Self time is span time minus the time
of its child spans.  A generator is timed across its resumptions: each
resumption is a span, and `yielded` counts the items.  A call is `rejected`
when it raises, returns False, or returns None where its annotation allows
None besides another value (`int | None`).  Spans are kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("branching", "combinat", "cover_algebra", "sing_smooth", "sing_stable",
          "stable_graphs")
PACKAGE = "cycliccovers"

# Output sizes counted from return values: (layer, function) -> (metric, size).
OUTPUT_COUNTS = {
    ("stable_graphs", "enumerate_graphs"): ("stable_graphs.classes_out", len),
    ("sing_stable", "boundary_survey"): ("sing_stable.components_out",
                                         lambda r: len(r[0])),
}

# Spans beyond this many are counted but not kept, to bound memory and the
# size of the dump.
MAX_SPANS = 250_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.rejected: dict[str, int] = defaultdict(int)
        self.yielded: dict[str, int] = defaultdict(int)
        self.outputs: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        # Open spans: [name, start, child seconds, span index].
        self._stack: list[list] = []
        self._span_name = array("i")
        self._span_parent = array("l")
        self._span_start = array("d")
        self._span_end = array("d")
        self.spans_dropped = 0
        self._originals: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name_ix: int) -> list:
        now = time.perf_counter()
        ix = -1
        if len(self._span_start) < MAX_SPANS:
            ix = len(self._span_start)
            self._span_name.append(name_ix)
            self._span_parent.append(self._stack[-1][3] if self._stack else -1)
            self._span_start.append(now)
            self._span_end.append(now)
        else:
            self.spans_dropped += 1
        frame = [name_ix, now, 0.0, ix]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        now = time.perf_counter()
        self._stack.pop()
        dur = now - frame[1]
        self.self_s[self.names[frame[0]]] += dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur
        if frame[3] >= 0:
            self._span_end[frame[3]] = now

    def _wrap(self, name: str, fn):
        name_ix = len(self.names)
        self.names.append(name)
        output = OUTPUT_COUNTS.get(tuple(name.split(".")))
        ret = str(fn.__annotations__.get("return", ""))
        none_rejects = "None" in ret and ret.strip() != "None"

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = self._open(name_ix)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except BaseException:
                        self.rejected[name] += 1
                        raise
                    finally:
                        self._close(frame)
                    self.yielded[name] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            frame = self._open(name_ix)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.rejected[name] += 1
                raise
            finally:
                self._close(frame)
            if result is False or (result is None and none_rejects):
                self.rejected[name] += 1
            if output is not None:
                self.outputs[output[0]] += output[1](result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers' public functions wherever the package binds them."""
        wrappers = {}
        for layer in LAYERS + ("cli",):
            mod = sys.modules["%s.%s" % (PACKAGE, layer)]
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") or (layer == "cli" and attr != "main"):
                    continue
                wrappers[id(obj)] = (obj, self._wrap("%s.%s" % (layer, attr), obj))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in self._originals:
            setattr(mod, attr, obj)
        self._originals.clear()

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        return dict(self.self_s)

    def span_count(self) -> int:
        return len(self._span_start)

    def write_spans(self, path: str) -> None:
        """Tab-separated spans: name, start s, end s, parent index (-1 = root)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            names = self.names
            for i in range(len(self._span_start)):
                fh.write("%s\t%.9f\t%.9f\t%d\n" % (
                    names[self._span_name[i]], self._span_start[i],
                    self._span_end[i], self._span_parent[i]))
