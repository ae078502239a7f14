"""River-system data: plant physics, topology, and time-resolution scaling.

Volumes are in HE (hour equivalents: 1 m3/s flowing for one hour) and flows
in m3/s, so a flow of Q m3/s over one hour moves exactly Q HE.  Production
is piecewise linear in discharge with two segments: the first 75% of
discharge capacity at the best efficiency, the remaining 25% at 95% of it.
"""

from dataclasses import dataclass
import csv
import importlib.resources
import math

import numpy as np

SEGMENT_SPLIT = 0.75          # share of discharge capacity on segment 1
SEGMENT2_EFFICIENCY = 0.95    # segment-2 efficiency relative to segment 1


@dataclass(frozen=True)
class PlantData:
    plant_id: str
    name: str
    capacity_mw: float
    max_discharge_m3s: float
    max_volume_he: float
    downstream_id: str = None        # None = terminal plant
    flow_time_discharge_min: float = 0.0
    flow_time_spill_min: float = 0.0
    maintenance_hours: int = 0

    def __post_init__(self):
        for fieldname in ("capacity_mw", "max_discharge_m3s", "max_volume_he",
                          "flow_time_discharge_min", "flow_time_spill_min"):
            if getattr(self, fieldname) < 0:
                raise ValueError(f"{self.plant_id}: {fieldname} must be non-negative")
        if not 0 <= self.maintenance_hours <= 24:
            raise ValueError(f"{self.plant_id}: maintenance_hours must lie in [0, 24]")


def production_segments(plant):
    """(mu1, mu2, qmax1, qmax2) for the two-segment production curve.

    mu1 is chosen so that running both segments flat out produces exactly
    the installed capacity: mu1*0.75*Q + 0.95*mu1*0.25*Q = P.
    """
    if plant.max_discharge_m3s <= 0:
        raise ValueError(f"{plant.plant_id}: max discharge must be positive")
    denom = SEGMENT_SPLIT + SEGMENT2_EFFICIENCY * (1.0 - SEGMENT_SPLIT)
    mu1 = plant.capacity_mw / (plant.max_discharge_m3s * denom)
    mu2 = SEGMENT2_EFFICIENCY * mu1
    q1 = SEGMENT_SPLIT * plant.max_discharge_m3s
    q2 = (1.0 - SEGMENT_SPLIT) * plant.max_discharge_m3s
    return mu1, mu2, q1, q2


class RiverNetwork:
    """Ordered plant list plus the downstream adjacency and its inverse."""

    def __init__(self, plants):
        if not plants:
            raise ValueError("network needs at least one plant")
        self.plants = list(plants)
        self.index = {p.plant_id: i for i, p in enumerate(self.plants)}
        if len(self.index) != len(self.plants):
            raise ValueError("duplicate plant ids")
        self.downstream = np.full(len(self.plants), -1, dtype=np.int64)
        for i, p in enumerate(self.plants):
            if p.downstream_id:
                if p.downstream_id not in self.index:
                    raise ValueError(
                        f"{p.plant_id}: unknown downstream plant {p.downstream_id!r}")
                self.downstream[i] = self.index[p.downstream_id]
        self._check_acyclic()
        n = len(self.plants)
        self.upstream_discharge = [[] for _ in range(n)]
        self.upstream_spill = [[] for _ in range(n)]
        for i, d in enumerate(self.downstream):
            if d >= 0:
                self.upstream_discharge[d].append(i)
                self.upstream_spill[d].append(i)

    def _check_acyclic(self):
        for start in range(len(self.plants)):
            seen = set()
            i = start
            while i >= 0:
                if i in seen:
                    raise ValueError(
                        f"cycle in river topology through {self.plants[i].plant_id}")
                seen.add(i)
                i = int(self.downstream[i])

    def __len__(self):
        return len(self.plants)

    @property
    def plant_ids(self):
        return [p.plant_id for p in self.plants]


@dataclass(frozen=True)
class Resolution:
    hours_per_period: int = 1

    def __post_init__(self):
        if int(self.hours_per_period) != self.hours_per_period or self.hours_per_period < 1:
            raise ValueError("hours_per_period must be a positive integer")


def periods_from_minutes(minutes, hours_per_period):
    """Whole periods for a flow time: nearest integer, ties toward zero."""
    x = minutes / 60.0 / hours_per_period
    return int(math.ceil(x - 0.5))


@dataclass(frozen=True)
class ScaledNetwork:
    """Per-period view of a network at a given resolution.

    Volumes are divided by hours_per_period (so a flow of Q m3/s for one
    period moves Q volume units), production equivalents are multiplied by
    it (MWh per period per m3/s), and flow times become whole periods.
    """

    network: RiverNetwork
    hours_per_period: int
    max_volume: np.ndarray
    mu1: np.ndarray
    mu2: np.ndarray
    qmax1: np.ndarray
    qmax2: np.ndarray
    tau_q: np.ndarray
    tau_s: np.ndarray

    def __len__(self):
        return len(self.network)


def rescale(network, resolution):
    hpp = resolution.hours_per_period
    n = len(network)
    max_volume = np.empty(n)
    mu1 = np.empty(n)
    mu2 = np.empty(n)
    q1 = np.empty(n)
    q2 = np.empty(n)
    tau_q = np.empty(n, dtype=np.int64)
    tau_s = np.empty(n, dtype=np.int64)
    for i, p in enumerate(network.plants):
        m1, m2, a, b = production_segments(p)
        max_volume[i] = p.max_volume_he / hpp
        mu1[i] = m1 * hpp
        mu2[i] = m2 * hpp
        q1[i] = a
        q2[i] = b
        tau_q[i] = periods_from_minutes(p.flow_time_discharge_min, hpp)
        tau_s[i] = periods_from_minutes(p.flow_time_spill_min, hpp)
    return ScaledNetwork(network, hpp, max_volume, mu1, mu2, q1, q2, tau_q, tau_s)


def default_initial_volumes(scaled, fraction=0.5):
    """Initial reservoir contents, default half full, in scaled units."""
    return fraction * scaled.max_volume


_COLUMNS = ["plant_id", "name", "capacity_mw", "max_discharge_m3s",
            "max_volume_he", "downstream_id", "flow_time_discharge_min",
            "flow_time_spill_min", "maintenance_hours"]


def load_river(path):
    """Read a river CSV into a RiverNetwork; parse errors carry line numbers."""
    plants = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(row for row in fh if not row.startswith("#"))
        missing = [c for c in _COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        for lineno, row in enumerate(reader, start=2):
            try:
                plants.append(PlantData(
                    plant_id=row["plant_id"].strip(),
                    name=row["name"].strip(),
                    capacity_mw=float(row["capacity_mw"]),
                    max_discharge_m3s=float(row["max_discharge_m3s"]),
                    max_volume_he=float(row["max_volume_he"]),
                    downstream_id=row["downstream_id"].strip() or None,
                    flow_time_discharge_min=float(row["flow_time_discharge_min"] or 0.0),
                    flow_time_spill_min=float(row["flow_time_spill_min"] or 0.0),
                    maintenance_hours=int(row["maintenance_hours"] or 0),
                ))
            except (ValueError, KeyError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    try:
        return RiverNetwork(plants)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def default_river():
    """The shipped 15-plant Skelleftealven system."""
    ref = importlib.resources.files("hydrosp").joinpath("data/skelleftealven.csv")
    with importlib.resources.as_file(ref) as path:
        return load_river(path)
