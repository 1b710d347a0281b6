"""Self-time tracing of troplines' modules, from outside the package.

Tracer.install replaces chosen functions with timing wrappers wherever a
loaded troplines module (or the compiled kernel) binds them, so calls
made through `from .x import f` names are caught too; uninstall puts
the originals back. Nothing in the package is edited.

Each wrapped call is a span. A span's self time is its duration minus
the durations of the spans it encloses, so the self times of all spans
add up to the time spent inside outermost spans; whatever the traced
wall time holds beyond that is reported as the `other` remainder.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self._enclosed: List[int] = [0]
        self._patched: List[Tuple[object, str, object]] = []

    def wrap(self, layer: str, fn: Callable,
             measure: Optional[Callable[[object], int]] = None) -> Callable:
        """fn timed as a span of layer; measure(result), when given, is
        added to counts[layer]."""
        clock = time.perf_counter_ns
        enclosed = self._enclosed
        self_ns, calls, counts = self.self_ns, self.calls, self.counts

        def traced(*args, **kwargs):
            enclosed.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[layer] += elapsed - enclosed.pop()
                enclosed[-1] += elapsed
                calls[layer] += 1
            if measure is not None:
                counts[layer] += measure(result)
            return result

        return traced

    def install(self, module, name: str, layer: str,
                measure: Optional[Callable[[object], int]] = None) -> None:
        """Wrap module.name and rebind every loaded troplines name bound
        to the same function."""
        original = getattr(module, name)
        wrapped = self.wrap(layer, original, measure)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "troplines" or mod_name.startswith("troplines.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
