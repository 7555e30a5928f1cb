"""Search and enumeration budgets; the CLI reads overrides from PUMPKIT_BUDGET_* env vars."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .errors import BadBudget

_ENV_PREFIX = "PUMPKIT_BUDGET_"


@dataclass(frozen=True)
class EnumBudget:
    """Caps for the brute-force oracles and the engine's searches.

    Defaults are sized so the whole differential suite stays at
    minutes-scale.  :meth:`from_env` overrides each field from the
    environment variable ``PUMPKIT_BUDGET_<FIELD_NAME_UPPERCASED>``; only
    the CLI calls it, and the library reads no environment.
    """

    max_path_len: int = 14
    max_assembly_size: int = 30
    max_graph_vertices: int = 40
    max_pump_depth: int = 10
    max_nodes: int = 10 ** 6

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise BadBudget(f"budget {f.name} must be >= 1")

    @classmethod
    def from_env(cls) -> "EnumBudget":
        values = {}
        for f in fields(cls):
            var = _ENV_PREFIX + f.name.upper()
            env = os.environ.get(var)
            if env is not None:
                try:
                    values[f.name] = int(env)
                except ValueError:
                    raise BadBudget(f"{var}={env!r} is not an integer") from None
        return cls(**values)
