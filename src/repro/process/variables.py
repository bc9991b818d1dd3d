"""Variable specifications and registries.

Every measured (XMEAS) and manipulated (XMV) variable of a plant is described
by a :class:`VariableSpec`: its name, engineering unit, nominal steady-state
value, measurement-noise magnitude and physical bounds.  A
:class:`VariableRegistry` groups the specs of one variable family and provides
name/index translation, nominal vectors and clipping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.common.exceptions import ConfigurationError

__all__ = ["VariableSpec", "VariableRegistry"]


@dataclass(frozen=True)
class VariableSpec:
    """Description of a single process variable.

    Attributes
    ----------
    name:
        Canonical name, e.g. ``"XMEAS(1)"``.
    description:
        Human-readable description, e.g. ``"A feed (stream 1)"``.
    unit:
        Engineering unit, e.g. ``"kscmh"``.
    nominal:
        Nominal steady-state value at the base operating point.
    noise_std:
        Standard deviation of the Gaussian measurement noise applied when the
        Krotofil randomness model is enabled.
    minimum / maximum:
        Physical bounds used for clipping (e.g. valves live in [0, 100] %).
    """

    name: str
    description: str = ""
    unit: str = ""
    nominal: float = 0.0
    noise_std: float = 0.0
    minimum: float = -np.inf
    maximum: float = np.inf

    def __post_init__(self) -> None:
        if self.minimum > self.maximum:
            raise ConfigurationError(
                f"{self.name}: minimum {self.minimum} exceeds maximum {self.maximum}"
            )
        if self.noise_std < 0:
            raise ConfigurationError(f"{self.name}: noise_std must be >= 0")

    def clip(self, value: float) -> float:
        """Clip a value to the physical bounds of this variable."""
        return float(min(max(value, self.minimum), self.maximum))


class VariableRegistry:
    """An ordered collection of :class:`VariableSpec` objects.

    The registry preserves insertion order, which defines the column order of
    the datasets produced by the simulator.
    """

    def __init__(self, specs: Optional[Iterable[VariableSpec]] = None):
        self._specs: List[VariableSpec] = []
        self._index: Dict[str, int] = {}
        self._lower = np.empty(0)
        self._upper = np.empty(0)
        for spec in specs or []:
            self.add(spec)

    def add(self, spec: VariableSpec) -> None:
        """Append a spec; names must be unique."""
        if spec.name in self._index:
            raise ConfigurationError(f"duplicate variable {spec.name!r}")
        self._index[spec.name] = len(self._specs)
        self._specs.append(spec)
        # clip() runs on every simulation step, so its bounds are built here.
        self._lower = self.lower_bounds()
        self._upper = self.upper_bounds()

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[VariableSpec]:
        return iter(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, name_or_index) -> VariableSpec:
        if isinstance(name_or_index, str):
            return self._specs[self.index_of(name_or_index)]
        return self._specs[int(name_or_index)]

    def index_of(self, name: str) -> int:
        """Column index of a variable name."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    @property
    def names(self) -> Tuple[str, ...]:
        """All variable names, in column order."""
        return tuple(spec.name for spec in self._specs)

    @property
    def descriptions(self) -> Tuple[str, ...]:
        """All descriptions, in column order."""
        return tuple(spec.description for spec in self._specs)

    def nominal_values(self) -> np.ndarray:
        """Vector of nominal values."""
        return np.array([spec.nominal for spec in self._specs], dtype=float)

    def noise_stds(self) -> np.ndarray:
        """Vector of measurement-noise standard deviations."""
        return np.array([spec.noise_std for spec in self._specs], dtype=float)

    def lower_bounds(self) -> np.ndarray:
        """Vector of lower bounds."""
        return np.array([spec.minimum for spec in self._specs], dtype=float)

    def upper_bounds(self) -> np.ndarray:
        """Vector of upper bounds."""
        return np.array([spec.maximum for spec in self._specs], dtype=float)

    def clip(self, values: np.ndarray) -> np.ndarray:
        """Clip a value vector to each variable's physical bounds."""
        values = np.asarray(values, dtype=float)
        if values.shape[-1] != len(self):
            raise ConfigurationError(
                f"expected {len(self)} values, got {values.shape[-1]}"
            )
        # The array method is what np.clip dispatches to, minus its wrappers.
        return values.clip(self._lower, self._upper)

    def describe(self) -> str:
        """A plain-text table of the registry, useful for documentation."""
        lines = [f"{'name':<12} {'unit':<10} {'nominal':>12}  description"]
        for spec in self._specs:
            lines.append(
                f"{spec.name:<12} {spec.unit:<10} {spec.nominal:>12.4g}  {spec.description}"
            )
        return "\n".join(lines)
