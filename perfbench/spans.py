"""Spans around the package's public calls, installed from outside the package.

``Tracer.install()`` replaces each traced function, in every
``hankel_approx`` module that binds it, by a wrapper that records a span
(name, start, end, parent). Spans stay in memory; ``metrics()`` turns them
into per-module self times, call counts and operand sizes. A traced name
that the package no longer has is listed in ``absent`` rather than failing
the run, so the benchmark survives refactors of the package.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, function) -> span name. Functions sharing a span name form one layer.
TRACED = {
    ("moments", "gamma_moment"): "moments.gen",
    ("moments", "gompertz_moment"): "moments.gen",
    ("moments", "zeta_moment"): "moments.gen",
    ("moments", "factorial_moment"): "moments.gen",
    ("moments", "load_moments"): "moments.load",
    ("hankel", "hankel_P"): "hankel",
    ("hankel", "hankel_Q"): "hankel",
    ("kernels", "bareiss_det"): "hankel.kernel",
    ("_bareiss_py", "bareiss_det"): "hankel.kernel",
    ("orthopoly", "ortho_init"): "orthopoly.step",
    ("orthopoly", "ortho_step"): "orthopoly.step",
    ("orthopoly", "inner_product"): "orthopoly.inner_product",
    ("orthopoly", "norm_product"): "orthopoly.norm",
    ("driver", "run_convergence"): "driver",
    ("driver", "cross_validate"): "driver",
    ("driver", "emit"): "driver.emit",
    ("exactnum", "rat_to_decimal"): "exactnum.decimal",
}

PACKAGE = "hankel_approx"
BOOKKEEPING = "trace.bookkeeping"


def bits(value) -> int:
    """Largest bit-length of a rational's numerator and denominator."""
    try:
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    except AttributeError:
        return 0


def kernel_mults(order: int) -> int:
    """Big-integer multiplications of one-step Bareiss on an order-n matrix:
    2 per updated entry, sum_{m<n} 2 m^2 = (n-1) n (2n-1) / 3. Computed, not counted."""
    return (order - 1) * order * (2 * order - 1) // 3


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self._stack = []
        self._patches = []  # (module, attribute, original)
        self.absent = []
        self.counts = defaultdict(int)
        self.sizes = defaultdict(int)

    # -- span recording ----------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def _size(self, key: str, value) -> None:
        self.sizes[key] = max(self.sizes[key], bits(value))

    # -- per-function observers, run in their own bookkeeping span ----------

    def _observe(self, func: str, args, result) -> None:
        if func.endswith("_moment"):
            self._size("moments", result)
        elif func == "load_moments":
            n = 1
            while True:
                try:
                    self._size("moments", result.moment(n))
                except IndexError:
                    break
                n += 1
        elif func in ("hankel_P", "hankel_Q"):
            self._size(func[-1], result)
        elif func == "bareiss_det":
            self.counts["kernel_mults"] += kernel_mults(len(args[0]))
        elif func in ("ortho_init", "ortho_step"):
            t = getattr(result, "t", None)
            if t:
                self._size("t", t[-1])
        elif func == "run_convergence":
            for record in result:
                self._size("P", getattr(record, "P", 0))
                self._size("Q", getattr(record, "Q", 0))
        elif func == "emit":
            self.counts["emit_bytes"] += len(result.encode())

    def _wrap(self, func: str, name: str, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.counts[func] += 1
            if func == "bareiss_det":
                # Entry sizes must be read before the kernel overwrites its input.
                index = tracer.open(BOOKKEEPING)
                tracer.sizes["kernel"] = max(
                    [tracer.sizes["kernel"]] + [abs(x).bit_length() for row in args[0] for x in row])
                tracer.close(index)
            result = tracer.span(name, original, *args, **kwargs)
            index = tracer.open(BOOKKEEPING)
            try:
                tracer._observe(func, args, result)
            finally:
                tracer.close(index)
            return result

        wrapper.__traced_original__ = original
        return wrapper

    # -- installing and removing ------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for (module, func), name in TRACED.items():
            try:
                original = getattr(importlib.import_module(f"{PACKAGE}.{module}"), func)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{func}")
                continue
            if hasattr(original, "__traced_original__"):
                continue  # already wrapped under another module's name
            wrapper = self._wrap(func, name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        """Span name -> seconds spent in it minus time in its child spans."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals = defaultdict(int)
        for (name, *_), ns in zip(self.spans, own):
            totals[name] += ns
        return {name: ns / 1e9 for name, ns in totals.items()}

    def metrics(self) -> dict:
        s = self.self_times()
        c = self.counts
        return {
            "cli.self_s": s.get("cli", 0.0),
            "moments.gen_s": s.get("moments.gen", 0.0),
            "moments.load_s": s.get("moments.load", 0.0),
            "moments.max_bits": self.sizes["moments"],
            "hankel.self_s": s.get("hankel", 0.0),
            "hankel.kernel_s": s.get("hankel.kernel", 0.0),
            "hankel.kernel_calls": c["bareiss_det"],
            "hankel.kernel_mults": c["kernel_mults"],
            "hankel.kernel_max_bits": self.sizes["kernel"],
            "hankel.P_bits": self.sizes["P"],
            "hankel.Q_bits": self.sizes["Q"],
            "orthopoly.inner_product_s": s.get("orthopoly.inner_product", 0.0),
            "orthopoly.inner_product_calls": c["inner_product"],
            "orthopoly.step_s": s.get("orthopoly.step", 0.0),
            "orthopoly.steps": c["ortho_step"],
            "orthopoly.norm_s": s.get("orthopoly.norm", 0.0),
            "orthopoly.t_bits": self.sizes["t"],
            "driver.self_s": s.get("driver", 0.0),
            "driver.emit_s": s.get("driver.emit", 0.0),
            "driver.emit_bytes": c["emit_bytes"],
            "exactnum.decimal_s": s.get("exactnum.decimal", 0.0),
            "trace.bookkeeping_s": s.get(BOOKKEEPING, 0.0),
            "trace.self_sum_s": sum(s.values()),
            "trace.spans": len(self.spans),
            "trace.absent": len(self.absent),
        }
