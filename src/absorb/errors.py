"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: InputError -> 2, CapExceeded -> 3, and
any other exception -> 4 (an internal error: the traceback, then
"internal error: <type>: <message>", on stderr).

The value types check the semantic rules of an input and raise InputError;
each `codec.parse_*` checks a document's JSON and raises ParseError, a
value type's InputError included, with the location (see `absorb.codec`).
"""


class AbsorbError(Exception):
    """Base class for all library errors."""


class InputError(AbsorbError):
    """Malformed or out-of-contract input (CLI exit code 2)."""


class ParseError(InputError):
    """A document failed to parse; message carries the location."""


class NotSubuniverseError(InputError):
    """The candidate subset B is not closed under the polymorphisms."""


class CapExceeded(AbsorbError):
    """A configured resource cap was exceeded (CLI exit code 3)."""


class SimplifyError(AbsorbError):
    """A formula cannot be brought to simplified form while preserving
    its evaluation."""
