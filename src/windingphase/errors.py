"""Exception types shared across the package."""

import reprlib
from decimal import MAX_EMAX, Context, Decimal

# one level of nesting, one item of a list or tuple, no dict items and 60 characters of a
# string: reprlib cuts any echo to a few dozen characters
_SHORT = reprlib.Repr()
_SHORT.maxlevel, _SHORT.maxlist, _SHORT.maxtuple, _SHORT.maxdict, _SHORT.maxstring = 1, 1, 1, 0, 60

# contexts that round to 30 and to 6 digits at any exponent
_WIDE, _SIX = Context(prec=30, Emax=MAX_EMAX), Context(prec=6, Emax=MAX_EMAX)


def _shown(value) -> str:
    """``value`` as a message echoes it: an int of 1e17 or more in %.6g form, else a short repr."""
    if isinstance(value, int) and abs(value) >= 10**17:
        # str() of an int past 4300 digits raises, float() overflows, and Decimal(value) and 10**k take time
        # super-linear in the digits.  The top 64 bits times 2**shift give 16 leading digits to within 2; only
        # when their last 10 are within reach of a tie does a division find them exactly, and one more digit,
        # 1 if any digit after them is nonzero (so a tie stays a tie).
        shift = max(abs(value).bit_length() - 64, 0)
        approx = _WIDE.multiply(abs(value) >> shift, _WIDE.power(2, shift))
        k = approx.adjusted() - 15
        head = int(_WIDE.scaleb(approx, -k))
        if abs(head % 10**10 - 5 * 10**9) < 10:
            head, rest = divmod(abs(value), 10**k)
            head, k = 10 * head + (rest != 0), k - 1
        return format(_SIX.normalize(Decimal(f"{'-' * (value < 0)}{head}e{k}")), "g")
    return _SHORT.repr(value)


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
        super().__init__(f"{_shown(key)}: {message}" if key else message)
        self.key = key


class ResourceGuardError(WindingPhaseError):
    """A run would generate more events (or ``what`` it counts) than the configured guard allows."""

    def __init__(self, event_count, limit, what="events"):
        super().__init__(f"run would generate {_shown(event_count)} {what}, guard limit is {limit}")
        self.event_count = event_count
        self.limit = limit
