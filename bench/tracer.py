"""Per-layer spans recorded from outside the program.

A span wraps one public function or method of a teefuzz module.  Each
span keeps its self time: the time inside the wrapped call minus the time
spent in wrapped calls nested inside it.  Bookkeeping done after a call
(the `after` hooks that count packets, bytes and so on) is charged to no
span, so it shows up in `other_s` together with the untraced glue.

Wrapping rebinds the name in every loaded teefuzz module that imported
it, because modules call each other through `from .x import y` bindings.
Nothing under `src/` changes; `uninstall` restores every binding.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every teefuzz module binding of `original` at `replacement`;
    returns the (module, name, original) triples that undo it."""
    undo = []
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("teefuzz"):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, key, value))
                setattr(mod, key, replacement)
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    while undo:
        owner, key, value = undo.pop()
        setattr(owner, key, value)


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._child: list[float] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        """Return `fn` timed as span `name`; `after(args, result, seconds)`
        runs on success with the call's total duration."""
        child = self._child
        self_s = self.self_s
        calls = self.calls
        clock = perf_counter

        def span(*args, **kwargs):
            child.append(0.0)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                self_s[name] += t1 - t0 - child.pop()
                calls[name] += 1
                if after is not None and result is not None:
                    after(args, result, t1 - t0)
                if child:
                    child[-1] += clock() - t0

        return span

    def install_function(self, module, attr: str, name: str, after=None) -> None:
        """Span every binding of `module.attr` across loaded teefuzz modules."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._undo += rebind(original, self.wrap(name, original, after))

    def install_method(self, cls, attr: str, name: str, after=None) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, after))

    def uninstall(self) -> None:
        restore(self._undo)
