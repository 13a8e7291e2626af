"""Span recorder for the benchmark's traced runs.

Spans are taken from outside the program: `install` replaces every public
function of every pcapass module in the namespace of each pcapass module that
holds it, which is where its callers look it up (`from .graph import prepare`
binds `prepare` in `pcapass.datasets`, so that binding is replaced too), and
`Tree.predict` on its class. Nothing under `src/` is edited; `restore` puts
the original objects back.

Each span records wall time (`time.perf_counter`) and the CPU time of its own
thread (`time.thread_time`). The parent of a span is the innermost span still
open on the same thread, so work a pool thread does has no parent: the
caller waiting on the pool is not running it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import pkgutil
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str  # "<pcapass module>.<function>", e.g. "graph.prepare"
    thread: int
    parent: int | None
    start: float
    end: float = 0.0
    cpu: float = 0.0  # CPU seconds of the span's own thread inside the span
    counts: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects finished spans in memory, in the order they end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        s = Span(
            id=next(self._ids),
            name=name,
            thread=threading.get_ident(),
            parent=stack[-1].id if stack else None,
            start=time.perf_counter(),
        )
        cpu0 = time.thread_time()
        stack.append(s)
        try:
            yield s
        finally:
            stack.pop()
            s.cpu = time.thread_time() - cpu0
            s.end = time.perf_counter()
            self.spans.append(s)

    def wrap(self, fn, name: str, probe=None):
        """Return `fn` recording a span per call.

        A generator function gets one span per step of its iteration, since
        calling it does no work. `probe(counts, args, kwargs, result)` fills
        the span's counts after the call; for a generator, `result` is the
        item the step produced.
        """
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def stepped(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    with self.span(name) as s:
                        try:
                            item = next(it)
                        except StopIteration as stop:
                            return stop.value
                    if probe is not None:
                        probe(s.counts, args, kwargs, item)
                    yield item

            return stepped

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if probe is not None:
                probe(s.counts, args, kwargs, result)
            return result

        return timed


class _NullTracer:
    """Stands in for a `Tracer` in untraced runs: records nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


NULL_TRACER = _NullTracer()


def pcapass_modules() -> list:
    """Every submodule of the package, resolved with `import_module`.

    `import pcapass.embed` would give the `embed` function, because the
    package re-exports it under the submodule's name. `__main__` is skipped:
    importing it runs the CLI.
    """
    pkg = importlib.import_module("pcapass")
    return [
        importlib.import_module(f"pcapass.{info.name}")
        for info in pkgutil.iter_modules(pkg.__path__)
        if not info.name.startswith("_")
    ]


def install(tracer: Tracer, probes: dict | None = None):
    """Wrap the package for `tracer`; returns a function that undoes it.

    `probes` maps span names to probe functions (see `Tracer.wrap`).
    """
    probes = probes or {}
    wrappers: dict[int, object] = {}
    replaced: list[tuple[object, str, object]] = []
    for mod in pcapass_modules():
        for attr, obj in list(vars(mod).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(obj)
                or not (obj.__module__ or "").startswith("pcapass.")
            ):
                continue
            name = f"{obj.__module__.removeprefix('pcapass.')}.{obj.__name__}"
            if id(obj) not in wrappers:
                wrappers[id(obj)] = tracer.wrap(obj, name, probes.get(name))
            replaced.append((mod, attr, obj))
            setattr(mod, attr, wrappers[id(obj)])
    tree = importlib.import_module("pcapass.gbdt").Tree
    replaced.append((tree, "predict", tree.predict))
    tree.predict = tracer.wrap(
        tree.predict, "gbdt.Tree.predict", probes.get("gbdt.Tree.predict")
    )

    def restore():
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)

    return restore


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> wall time minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        inner = [(c.start, c.end) for c in children.get(s.id, ())]
        out[s.id] = max(0.0, s.wall - covered(inner, s.start, s.end))
    return out


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total
