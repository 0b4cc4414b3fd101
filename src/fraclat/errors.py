"""Shared exception types, and the memory check that raises CapacityError."""

import os


class CapacityError(RuntimeError):
    """Requested lattice exceeds the site-count cap, or a dense array for it exceeds physical memory."""


class NumericalError(RuntimeError):
    """A numerical operation produced non-finite values or failed to converge."""


class ConfigError(ValueError):
    """Invalid or unknown study configuration, or a value the lattice it builds cannot take."""


def require_memory(nbytes: int, what: str) -> None:
    """Raise CapacityError when the nbytes that `what` needs exceed physical
    memory; callers check before they allocate."""
    ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > ram:
        raise CapacityError(f"{what} needs {nbytes / 1e9:.1f} GB, physical memory is {ram / 1e9:.1f} GB")
