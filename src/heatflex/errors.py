"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration problems exit 1,
data validation problems exit 2, anything else exits 3.
"""


class HeatflexError(Exception):
    """Base class for all package errors."""


class ConfigError(HeatflexError):
    """Invalid configuration: scenario files, distribution parameters, COP curves."""


class DataValidationError(HeatflexError):
    """Input data violates the expected schema or invariants."""


class SchemaError(DataValidationError):
    """A required column is missing from an input table."""


class ParseError(DataValidationError):
    """A cell could not be parsed; message carries the row number."""


class DuplicateRecordError(DataValidationError):
    """The same (lsoa_id, category) key appears more than once."""


class DanglingRegionError(DataValidationError):
    """The LSOA lookup references a region absent from the regions table."""


class UnresolvedLsoaError(DataValidationError):
    """Stock LSOAs with no region mapping."""

    def __init__(self, lsoa_ids):
        self.lsoa_ids = tuple(sorted(lsoa_ids))
        shown = ", ".join(self.lsoa_ids[:10])
        more = "" if len(self.lsoa_ids) <= 10 else f" (+{len(self.lsoa_ids) - 10} more)"
        super().__init__(f"{len(self.lsoa_ids)} LSOA(s) have no region mapping: {shown}{more}")


class DomainError(HeatflexError, ValueError):
    """A physical quantity is outside its valid domain."""
