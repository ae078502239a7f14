"""Hydropower planning models: day-ahead bidding, maintenance scheduling,
capacity expansion, and the water-value cut generator."""

from .dispatch import (interp_weights, hourly_dispatch, block_dispatch,
                       accepted_block_levels)
from .common import PenaltyConfig, mass_balance_residuals
from .watervalue import (WaterValuePool, WaterValueError, build_week_ahead,
                         compute_water_value)
from .dayahead import (DayAheadStrategy, DayAheadModel, DayAheadLayout,
                       ProductionSchedule, build_day_ahead, total_capacity)
from .maintenance import (MaintenanceSchedule, MaintenanceModel,
                          build_maintenance)
from .capacity import (CostParams, ExpansionPlan, CapacityModel,
                       build_capacity, equivalent_cost)

__all__ = [
    "interp_weights", "hourly_dispatch", "block_dispatch",
    "accepted_block_levels", "PenaltyConfig", "mass_balance_residuals",
    "WaterValuePool", "WaterValueError", "build_week_ahead",
    "compute_water_value", "DayAheadStrategy", "DayAheadModel",
    "DayAheadLayout", "ProductionSchedule", "build_day_ahead",
    "total_capacity", "MaintenanceSchedule", "MaintenanceModel",
    "build_maintenance", "CostParams", "ExpansionPlan", "CapacityModel",
    "build_capacity", "equivalent_cost",
]
