"""Declarative sweep grids.

A :class:`SweepSpec` names a (workload x CompilerOptions x
MachineConfig [x problem size]) grid; :meth:`SweepSpec.expand` turns it
into an ordered, de-duplicated list of :class:`SweepTask` items.  Each
task carries everything a worker process needs to recreate the run —
workload *name* (specs are rebuilt in the worker from the registry, so
only small frozen dataclasses cross the process boundary), options,
config, and an optional problem-size override.

Task keys are content digests: two tasks with the same key compute the
same result, which is what grid dedup, the run-cache probe, and
checkpoint/resume all key on.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass

from ..compiler import CompilerOptions, DEFAULT_OPTIONS
from ..compiler.options import ReductionStyle
from ..errors import ExperimentError
from ..machine import DEFAULT_CONFIG, MachineConfig
from ..machines import tuned_options

#: The canonical compiler-option variants every workload supports
#: (mirrors the lint acceptance gate: 17 workloads x 6 variants).
OPTION_VARIANTS: dict[str, CompilerOptions] = {
    "default": CompilerOptions(),
    "reuse": CompilerOptions(reuse_shifted_loads=True),
    "tight-sregs": CompilerOptions(scalar_fp_registers=2),
    "tight-aregs": CompilerOptions(address_registers=6),
    "partial-sums": CompilerOptions(
        reduction_style=ReductionStyle.PARTIAL_SUMS
    ),
    "direct-sum": CompilerOptions(
        reduction_style=ReductionStyle.DIRECT_SUM
    ),
}


def _canonical(value):
    """A JSON-able canonical form for digesting dataclass trees."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if hasattr(value, "keys") and hasattr(value, "lookup"):
        # TimingTable duck-type: stable sorted entry list
        return [_canonical(value.lookup(k)) for k in value.keys()]
    return value


#: instance ``__dict__`` slot holding a frozen dataclass's canonical text
_TEXT = "_canonical_text"


def _canonical_text(value) -> str:
    """The canonical JSON text of one :func:`digest` argument.

    A frozen dataclass computes its text once and keeps it in its own
    ``__dict__``, the way ``functools.cached_property`` does.  The text
    belongs to the instance, never to its value: ``with_contention(2)``
    and ``with_contention(2.0)`` compare equal but encode differently.
    Copies made with ``replace`` start without it; pickles carry it.
    """
    params = getattr(type(value), "__dataclass_params__", None)
    if params is None or not params.frozen:
        return json.dumps(_canonical(value), sort_keys=True)
    text = value.__dict__.get(_TEXT)
    if text is None:
        text = json.dumps(_canonical(value), sort_keys=True)
        value.__dict__[_TEXT] = text
    return text


def digest(*values) -> str:
    """Short stable content digest of dataclass values."""
    # byte for byte json.dumps([...], sort_keys=True) of the values
    payload = "[" + ", ".join(_canonical_text(v) for v in values) + "]"
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class SweepTask:
    """One cell of a sweep grid.

    ``mode`` selects what the cell computes:

    * ``"run"`` — simulate the kernel (cycles + counters + CPL/CPF);
    * ``"bound"`` — the static ``t_MACS`` bound of the compiled loop
      (uses ``config.timings``/``config.refresh_enabled`` and the
      optional chime ``rules``);
    * ``"mac"`` — the ``t_MAC`` level of the model hierarchy.
    """

    workload: str
    options: CompilerOptions = DEFAULT_OPTIONS
    config: MachineConfig = DEFAULT_CONFIG
    #: problem-size override (None = the workload's native size)
    n: int | None = None
    #: display labels, e.g. (("variant", "reuse"), ("config", "base"))
    tags: tuple[tuple[str, str], ...] = ()
    mode: str = "run"
    #: chime-partitioning ablation switches (``mode="bound"`` only)
    rules: object | None = None

    def __post_init__(self):
        if self.mode not in ("run", "bound", "mac"):
            raise ExperimentError(
                f"unknown sweep task mode {self.mode!r}"
            )

    @property
    def key(self) -> str:
        """Stable content key (same key => same deterministic result)."""
        size = "" if self.n is None else f":n{self.n}"
        mode = "" if self.mode == "run" else f":{self.mode}"
        return (
            f"{self.workload}{size}{mode}:"
            f"{digest(self.options, self.config, self.rules)}"
        )

    @property
    def label(self) -> str:
        """Human-readable label for tables and traces."""
        parts = [self.workload]
        if self.n is not None:
            parts.append(f"n={self.n}")
        parts.extend(v for _, v in self.tags)
        return "/".join(parts)

    def tag(self, name: str, default: str = "") -> str:
        for key, value in self.tags:
            if key == name:
                return value
        return default


@dataclass(frozen=True)
class SweepSpec:
    """A declarative (workload x options x config [x size]) grid.

    ``variants`` and ``configs`` are name->value mappings; names become
    ``variant``/``config`` tags on the expanded tasks.  Expansion order
    is workload-major and deterministic; exact-duplicate cells (same
    content key) are dropped, keeping the first occurrence.
    """

    workloads: tuple[str, ...]
    variants: tuple[tuple[str, CompilerOptions], ...] = (
        ("default", DEFAULT_OPTIONS),
    )
    configs: tuple[tuple[str, MachineConfig], ...] = (
        ("base", DEFAULT_CONFIG),
    )
    sizes: tuple[int | None, ...] = (None,)

    @classmethod
    def build(
        cls,
        workloads,
        variants: dict[str, CompilerOptions] | None = None,
        configs: dict[str, MachineConfig] | None = None,
        sizes=(None,),
    ) -> "SweepSpec":
        """Convenience constructor from mappings/iterables."""
        return cls(
            workloads=tuple(workloads),
            variants=tuple(
                (variants or {"default": DEFAULT_OPTIONS}).items()
            ),
            configs=tuple(
                (configs or {"base": DEFAULT_CONFIG}).items()
            ),
            sizes=tuple(sizes),
        )

    @property
    def grid_size(self) -> int:
        return (
            len(self.workloads) * len(self.variants)
            * len(self.configs) * len(self.sizes)
        )

    def expand(self) -> list[SweepTask]:
        """The de-duplicated task list, in deterministic grid order.

        Each cell compiles with its options tuned to its machine
        (:func:`~repro.machines.tuned_options`), exactly as a service
        request for the same work does, so the two share one key.
        """
        if not self.workloads:
            raise ExperimentError("sweep grid has no workloads")
        if not self.variants or not self.configs or not self.sizes:
            raise ExperimentError(
                "sweep grid needs at least one variant, config, and size"
            )
        tasks: list[SweepTask] = []
        seen: set[str] = set()
        for workload in self.workloads:
            for size in self.sizes:
                for vname, options in self.variants:
                    for cname, config in self.configs:
                        task = SweepTask(
                            workload=workload,
                            options=tuned_options(options, config),
                            config=config,
                            n=size,
                            tags=(
                                ("variant", vname),
                                ("config", cname),
                            ),
                        )
                        if task.key in seen:
                            continue
                        seen.add(task.key)
                        tasks.append(task)
        return tasks
