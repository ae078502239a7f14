"""River-system data: plant physics, topology, and time-resolution scaling;
``CsvTable``, the reader of every input CSV file, and ``write_csv``, the
writer of every CSV artifact.

Volumes are in HE (hour equivalents: 1 m3/s flowing for one hour) and flows
in m3/s, so a flow of Q m3/s over one hour moves exactly Q HE.  Production
is piecewise linear in discharge with two segments: the first 75% of
discharge capacity at the best efficiency, the remaining 25% at 95% of it.
"""

from dataclasses import dataclass
import csv
import functools
import importlib.resources
import math
from types import MappingProxyType

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
    """Ordered plant tuple plus the downstream adjacency and its inverse,
    ``upstream[h]``: the plants whose discharge and spill reach plant h.

    A network is immutable: ``plants`` and ``upstream`` are tuples,
    ``index`` is a read-only mapping, ``downstream`` a read-only array, and
    no attribute can be rebound.  So one network, such as the one
    ``default_river`` returns, can be shared by every model built on it.
    """

    def __init__(self, plants):
        if not plants:
            raise ValueError("network needs at least one plant")
        plants = tuple(plants)
        index = {p.plant_id: i for i, p in enumerate(plants)}
        if len(index) != len(plants):
            raise ValueError("duplicate plant ids")
        downstream = np.full(len(plants), -1, dtype=np.int64)
        for i, p in enumerate(plants):
            if p.downstream_id:
                if p.downstream_id not in index:
                    raise ValueError(
                        f"{p.plant_id}: unknown downstream plant {p.downstream_id!r}")
                downstream[i] = index[p.downstream_id]
        downstream.setflags(write=False)
        upstream = [[] for _ in plants]
        for i, d in enumerate(downstream):
            if d >= 0:
                upstream[d].append(i)
        upstream = tuple(tuple(u) for u in upstream)
        for name, value in (("plants", plants),
                            ("index", MappingProxyType(index)),
                            ("downstream", downstream),
                            ("upstream", upstream)):
            object.__setattr__(self, name, value)
        self._check_acyclic()

    def __setattr__(self, name, value):
        raise AttributeError(f"RiverNetwork is immutable; cannot set {name!r}")

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
    plants = network.plants
    mu1, mu2, q1, q2 = np.array([production_segments(p)
                                 for p in plants]).T.copy()
    tau_q, tau_s = (np.array([periods_from_minutes(getattr(p, name), hpp)
                              for p in plants], dtype=np.int64)
                    for name in ("flow_time_discharge_min",
                                 "flow_time_spill_min"))
    return ScaledNetwork(network, hpp,
                         np.array([p.max_volume_he for p in plants]) / hpp,
                         mu1 * hpp, mu2 * hpp, q1, q2, tau_q, tau_s)


def default_initial_volumes(scaled, fraction=0.5):
    """Initial reservoir contents, default half full, in scaled units."""
    return fraction * scaled.max_volume


_COLUMNS = ["plant_id", "name", "capacity_mw", "max_discharge_m3s",
            "max_volume_he", "downstream_id", "flow_time_discharge_min",
            "flow_time_spill_min", "maintenance_hours"]


class CsvTable:
    """A CSV file read one record per line: its ``header``, its ``rows`` as
    ``(line number, {column: text})`` pairs and its last line number ``end``.

    Blank lines and lines that start with ``#`` are skipped.  The first other
    line is the header, which must name every column of ``columns``; every row
    must be as wide as the header, and with ``nonempty`` given there must be a
    row.  Every failed check is a ValueError that names the file and the line.
    """

    def __init__(self, path, columns, nonempty=None):
        self.path, self.header, self.rows, line = path, None, [], 0
        with open(path, newline="") as fh:
            for line, text in enumerate(fh, start=1):
                if not text.strip() or text.startswith("#"):
                    continue
                row = next(csv.reader([text]))
                if self.header is None:
                    missing = [c for c in columns if c not in row]
                    if missing:
                        raise self.error(line, f"missing columns {missing}")
                    self.header = row
                elif len(row) != len(self.header):
                    raise self.error(line, f"{len(row)} columns, the header "
                                           f"has {len(self.header)}")
                else:
                    self.rows.append((line, dict(zip(self.header, row))))
        self.end = line
        if self.header is None:
            raise self.error(line + 1, f"expected a header with the columns "
                                       f"{list(columns)}")
        if nonempty and not self.rows:
            raise self.error(line, f"no {nonempty} rows below the header")

    def error(self, line, message):
        return ValueError(f"{self.path}, line {line}: {message}")

    def parse(self, row_value):
        """``row_value(row)`` of every row; a ValueError or KeyError it raises
        names the row's line."""
        values = []
        for line, row in self.rows:
            try:
                values.append(row_value(row))
            except (ValueError, KeyError) as exc:
                raise self.error(line, exc) from None
        return values

    @staticmethod
    def index(row, column):
        """``row[column]`` as an index counted from 0; a negative one is a
        ValueError, which ``parse`` reports at its line."""
        value = int(row[column])
        if value < 0:
            raise ValueError(f"{column} {value} is negative")
        return value

    def put(self, values, key, value, what):
        """``values[key] = value`` for a ``what`` row; a key that an earlier
        row gave is a ValueError, which ``parse`` reports at its line."""
        if key in values:
            raise ValueError(f"repeats the {what} row {key}")
        values[key] = value

    def lookup(self, values, keys, what):
        """``values[key]`` for every key, where a missing key is a ``what``
        row the file ends without."""
        try:
            return [values[key] for key in keys]
        except KeyError as exc:
            raise self.error(self.end, f"the file ends without the {what} "
                                       f"row {exc.args[0]}") from None


def write_csv(path, header, rows, units=None):
    """Write a CSV artifact: an optional ``# units:`` line, the header and
    the rows, ``\\n`` line ends.  A float cell (numpy's too) is written as
    ``repr(float(v))``, which reads back to the same bits, any other cell as
    ``csv`` writes it."""
    with open(path, "w", newline="") as fh:
        if units is not None:
            fh.write(f"# units: {units}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([repr(float(v)) if isinstance(v, (float, np.floating))
                     else v for v in row] for row in rows)


def load_river(path):
    """Read a river CSV into a RiverNetwork; parse errors carry line numbers."""
    plants = CsvTable(path, _COLUMNS).parse(lambda row: PlantData(
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
    try:
        return RiverNetwork(plants)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@functools.cache
def default_river():
    """The shipped 15-plant Skelleftealven system, parsed once per process;
    every call returns the same immutable network."""
    ref = importlib.resources.files("hydrosp").joinpath("data/skelleftealven.csv")
    with importlib.resources.as_file(ref) as path:
        return load_river(path)
