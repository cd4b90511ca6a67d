"""Run configuration shared by all sampling-based computations.

Every stochastic routine derives its generator from (seed, structural
labels) so results are independent of scheduling and worker count.
"""

import dataclasses
import math
import numbers
import zlib

import numpy as np


@dataclasses.dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    shells: int = 10
    samples_per_shell: int = 2000
    radius_start: float = 10.0
    radius_factor: float = 2.0
    rho_start: float = 0.5
    rho_factor: float = 0.6
    delta_start: float = 0.5
    delta_factor: float = 0.5
    ang_tol: float = 0.01
    eq_tol: float = 1e-9
    persistence_window: int = 3
    # direction-grid sizes per ambient dimension
    grid_2d: int = 3600
    grid_3d: int = 20000
    grid_4d: int = 40000
    # sampling / projection budgets
    max_rounds: int = 40
    projection_starts: int = 8
    probes_per_level: int = 200
    threads: int = 1

    def __post_init__(self):
        """ValueError naming the config.<key> path of a value that no
        sampling rule can use; tail rules need shells > persistence_window.
        """
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            lo = 1 if f.name == "radius_factor" else 0  # counts: > 0 is >= 1
            kind = numbers.Integral if f.type is int else numbers.Real
            if isinstance(v, bool) or not isinstance(v, kind) \
                    or not abs(v) < math.inf:
                why = "must be " + ("an integer" if f.type is int
                                    else "a finite number")
            elif f.name != "seed" and not v > lo:
                why = "must be > %r" % lo
            else:
                continue
            raise ValueError("config.%s: %s, got %r" % (f.name, why, v))
        if self.shells <= self.persistence_window:
            raise ValueError("config.shells: must be > persistence_window "
                             "(%d), got %d" % (self.persistence_window,
                                              self.shells))

    def replace(self, **kw):
        for k in sorted(set(kw) - {f.name for f in dataclasses.fields(self)}):
            raise ValueError("config.%s: unknown key" % k)
        return dataclasses.replace(self, **kw)

    def radius(self, j):
        return self.radius_start * self.radius_factor ** j

    def rho(self, j):
        return self.rho_start * self.rho_factor ** j

    def delta(self, j):
        return self.delta_start * self.delta_factor ** j

    def rng(self, *labels):
        """Deterministic generator keyed by the master seed and labels.

        Labels are structural (shell index, piece index, purpose string),
        never derived from timing or thread identity.
        """
        key = [int(self.seed) & 0xFFFFFFFF]
        for lab in labels:
            key.append(zlib.crc32(str(lab).encode("utf-8")))
        return np.random.default_rng(np.random.SeedSequence(key))

    def to_json(self):
        return dataclasses.asdict(self)
