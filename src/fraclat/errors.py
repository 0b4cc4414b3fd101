"""Shared exception types."""


class CapacityError(RuntimeError):
    """Requested lattice exceeds the site-count cap, or a dense array for it exceeds physical memory."""


class NumericalError(RuntimeError):
    """A numerical operation produced non-finite values or failed to converge."""


class ConfigError(ValueError):
    """Invalid or unknown study configuration, or a value the lattice it builds cannot take."""
