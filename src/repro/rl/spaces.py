"""Action/observation space descriptors (a minimal gym-style vocabulary)."""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

__all__ = ["Discrete", "Box"]


@dataclass(frozen=True)
class Discrete:
    """``n`` mutually exclusive actions, encoded as ints ``0..n-1``."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"Discrete space needs n >= 1, got {self.n}")

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, self.n))

    def contains(self, action) -> bool:
        return isinstance(action, (int, np.integer)) and 0 <= action < self.n


@dataclass(frozen=True)
class Box:
    """A continuous action vector with per-dimension bounds [low, high]."""

    dim: int
    low: float = -1.0
    high: float = 1.0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"Box space needs dim >= 1, got {self.dim}")
        if np.isnan(self.low) or np.isnan(self.high):
            raise ValueError(f"Box bounds must not be NaN: [{self.low}, {self.high}]")
        if self.low >= self.high:
            raise ValueError(f"Box bounds inverted: [{self.low}, {self.high}]")

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=self.dim)

    def contains(self, action) -> bool:
        action = np.asarray(action)
        return action.shape == (self.dim,) and bool(
            np.all(action >= self.low) and np.all(action <= self.high)
        )

    def clip(self, action: np.ndarray) -> np.ndarray:
        """``np.clip`` to [low, high], bit for bit, without its wrapper cost.

        ``np.minimum(np.maximum(a, low), high)`` returns exactly what
        ``np.clip`` returns — NaN payloads, ``±inf`` and ``-0.0`` included —
        except when a bound is a signed zero: then an input zero of the
        other sign comes back as the bound's zero instead of itself, so
        such boxes keep ``np.clip``.
        """
        action = np.asarray(action, dtype=np.float64)
        if self.low and self.high:
            return np.minimum(np.maximum(action, self.low), self.high)
        return np.clip(action, self.low, self.high)
