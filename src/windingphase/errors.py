"""Exception types shared across the package."""

from decimal import Context, Decimal


class WindingPhaseError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(WindingPhaseError, ValueError):
    """Basis sizes of two objects do not match."""


class DomainError(WindingPhaseError, ValueError):
    """A numeric argument is outside its legal domain."""


class ConfigError(WindingPhaseError):
    """An experiment configuration is missing, malformed, or invalid.

    ``key`` names the offending entry (e.g. ``"periods[0]"``) when known.
    """

    def __init__(self, message, key=None):
        super().__init__(f"{key}: {message}" if key else message)
        self.key = key


class ResourceGuardError(WindingPhaseError):
    """A run would generate more events (or ``what`` it counts) than the configured guard allows."""

    def __init__(self, event_count, limit, what="events"):
        # a count of 1e17 or more (inf too) in %.6g form, not in full
        try:
            shown = f"{event_count:.6g}" if event_count >= 1e17 else event_count
        except OverflowError:  # an int past the float range, rounded to 6 digits by Decimal
            shown = format(Context(prec=6).plus(Decimal(event_count)).normalize(), "g")
        super().__init__(f"run would generate {shown} {what}, guard limit is {limit}")
        self.event_count = event_count
        self.limit = limit
