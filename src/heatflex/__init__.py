"""Flexibility from the thermal mass of heat-pump-heated dwelling stocks.

Pipeline: ingest a per-LSOA stock table, derive per-record thermal physics
(heat loss, capacitance, heat pump size), expand the records into a columnar
sample table, run the 1R1C transient core over it as array expressions, and
fold the outcome columns into flexibility envelopes at LSOA, local
authority, region or national level.
"""

from .aggregate import (
    AggregateReport,
    Envelope,
    ExportFormat,
    FiniteEnergy,
    GroupStats,
    Level,
    build_envelope,
    capped_energy,
    export_plot_grid,
    export_report,
    finite_energy,
    load_report,
    rollup,
)
from .config import read_scenario, write_scenario
from .errors import (
    ConfigError,
    DanglingRegionError,
    DataValidationError,
    DomainError,
    DuplicateRecordError,
    HeatflexError,
    MissingParamsError,
    ParseError,
    SchemaError,
    UnresolvedLsoaError,
)
from .rc import (
    ComfortBand,
    CopCurve,
    Direction,
    Duration,
    DurationKind,
    FlexOutcome,
    RcDwelling,
    cop_at,
    evaluate,
    flexibility_magnitude,
    initial_heat_output,
    service_duration,
    service_duration_discrete,
    steady_state_temp,
)
from .regions import RegionInfo, RegionTable, default_regions_path, load_region_table
from .scenario import (
    FixedIndoor,
    SampleTable,
    ScenarioRun,
    ScenarioSpec,
    TruncatedNormalIndoor,
    build_samples,
    run_scenario,
    run_stock_scenario,
    run_sweep,
    sample_indoor_temps,
)
from .stock import (
    DwellingCategory,
    DwellingForm,
    DwellingRecord,
    HeatingSystem,
    load_stock,
    winsorize_stock,
    write_stock,
)
from .thermal import (
    CapacityLevel,
    StockVariant,
    ThermalParams,
    derive_all,
    heat_loss_coefficient,
    size_heat_pump,
    thermal_capacity,
    total_installed_thermal_kw,
    write_params_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateReport", "CapacityLevel", "ComfortBand", "ConfigError", "CopCurve",
    "DanglingRegionError", "DataValidationError", "Direction", "DomainError",
    "DuplicateRecordError", "Duration", "DurationKind", "DwellingCategory",
    "DwellingForm", "DwellingRecord", "Envelope", "ExportFormat",
    "FiniteEnergy", "FixedIndoor", "FlexOutcome", "GroupStats", "HeatflexError",
    "HeatingSystem", "Level", "MissingParamsError", "ParseError", "RcDwelling",
    "RegionInfo", "RegionTable", "SampleTable", "ScenarioRun", "ScenarioSpec", "SchemaError",
    "StockVariant", "ThermalParams", "TruncatedNormalIndoor", "UnresolvedLsoaError",
    "build_envelope", "build_samples", "capped_energy", "cop_at",
    "default_regions_path", "derive_all", "evaluate", "export_plot_grid",
    "export_report", "finite_energy", "flexibility_magnitude", "heat_loss_coefficient",
    "initial_heat_output", "load_region_table", "load_report", "load_stock",
    "read_scenario", "rollup", "run_scenario", "run_stock_scenario", "run_sweep",
    "sample_indoor_temps", "service_duration",
    "service_duration_discrete", "size_heat_pump", "steady_state_temp",
    "thermal_capacity", "total_installed_thermal_kw", "winsorize_stock",
    "write_params_csv", "write_scenario", "write_stock",
]
