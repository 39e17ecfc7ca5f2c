"""In-memory spans around calls into the program's public functions.

The benchmark never edits program code: it replaces a module attribute
with a wrapper that records a span, then restores the original. Code in
the program that looks the attribute up at call time (``codecs.decode``,
``dedup_mod.uniqueness_violations``) goes through the wrapper; Ray tasks
run in other processes and are not seen, which is why per-row costs
come from an in-process replay of the per-shard chain.

A span is ``(id, name, start, end, parent, run)``. Spans are kept in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Any, Callable, Iterator


class Tracer:
    """Span recorder. ``enabled=False`` records nothing, but planted
    delays still apply, so a delay shows in the untraced figures too."""

    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self.delays: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        # the op span that new threads attach to (pool threads start
        # with an empty stack)
        self._root: int | None = None
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def begin(self, name: str) -> tuple[int, str, float, int | None]:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        stack.append(sid)
        return sid, name, time.perf_counter(), parent

    def end(self, token: tuple[int, str, float, int | None]) -> float:
        sid, name, start, parent = token
        end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == sid:
            stack.pop()
        if self.enabled:
            with self._lock:
                self.spans.append({"id": sid, "name": name, "start": start,
                                   "end": end, "parent": parent,
                                   "run": self.run_id})
        return end - start

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def op(self, name: str) -> "_Span":
        """Span for one benchmark operation; threads started inside it
        parent their spans to it."""
        return _Span(self, name, root=True)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             finish: Callable[[Any], Any] | None = None) -> None:
        """Replace ``owner.attr`` with a spanned wrapper. ``finish`` runs
        on the result inside the span (e.g. materializing a lazy
        Dataset, so the span covers the execution it triggers)."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                if name in tracer.delays:
                    time.sleep(tracer.delays[name])
                out = orig(*args, **kwargs)
                if finish is not None and tracer.enabled:
                    out = finish(out)
                return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def wrap_factory(self, owner: Any, attr: str, name: str) -> None:
        """Replace the factory ``owner.attr`` with one whose returned
        callable is spanned: code that builds its function through the
        factory at call time times the program's own function."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def factory(*args: Any, **kwargs: Any) -> Any:
            made = orig(*args, **kwargs)

            @functools.wraps(made)
            def wrapper(*a: Any, **kw: Any) -> Any:
                with tracer.span(name):
                    return made(*a, **kw)
            return wrapper

        setattr(owner, attr, factory)
        self._patches.append((owner, attr, orig))

    def wrap_iterator_method(self, owner: Any, attr: str, name: str) -> None:
        """Wrap a method returning ``(iterator, ...)``: the span runs
        until the iterator is exhausted or closed."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if getattr(tracer._local, "in_exec", False):
                return orig(*args, **kwargs)
            token = tracer.begin(name)
            tracer._local.in_exec = True
            try:
                out = orig(*args, **kwargs)
            except BaseException:
                tracer._local.in_exec = False
                tracer.end(token)
                raise
            tracer._local.in_exec = False
            # the iterator is consumed later, maybe from another frame:
            # close the span from the generator, not from this stack
            tracer._stack().remove(token[0])
            return (_timed_iter(tracer, token, out[0]), *out[1:])

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def wrap_exclusive(self, owner: Any, attr: str, name: str) -> None:
        """Like :meth:`wrap`, but a call made while another wrapped
        execution of the same family is open is not recorded again."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if getattr(tracer._local, "in_exec", False):
                return orig(*args, **kwargs)
            tracer._local.in_exec = True
            try:
                with tracer.span(name):
                    return orig(*args, **kwargs)
            finally:
                tracer._local.in_exec = False

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def unwrap_all(self, keep: int = 0) -> None:
        """Restore the originals, newest first, of every wrapper but the
        first ``keep``."""
        while len(self._patches) > keep:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                f.write(json.dumps(s) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str, root: bool = False) -> None:
        self.tracer, self.name, self.root = tracer, name, root
        self.seconds = 0.0

    def __enter__(self) -> "_Span":
        self.token = self.tracer.begin(self.name)
        if self.root:
            self.tracer._root = self.token[0]
        return self

    def __exit__(self, *exc: Any) -> None:
        self.seconds = self.tracer.end(self.token)
        if self.root:
            self.tracer._root = None


def _timed_iter(tracer: Tracer, token: tuple, it: Iterator) -> Iterator:
    sid, name, start, parent = token
    try:
        yield from it
    finally:
        if tracer.enabled:
            with tracer._lock:
                tracer.spans.append({"id": sid, "name": name, "start": start,
                                     "end": time.perf_counter(),
                                     "parent": parent, "run": tracer.run_id})


def self_times(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(kids.get(s["id"], [])):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out
