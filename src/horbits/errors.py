"""Exception types, size guards and the file writer shared across the package."""
from __future__ import annotations

__all__ = [
    "DomainError",
    "GroupMismatchError",
    "NonDominantError",
    "SizeLimitError",
    "MalformedMultisetError",
]


class DomainError(ValueError):
    """A request that is syntactically fine but violates a domain contract."""


class GroupMismatchError(DomainError):
    """Operands belong to different groups."""


class NonDominantError(DomainError):
    """A dominant weight was required but a coordinate is negative."""


class SizeLimitError(DomainError):
    """A computation would exceed its configured size guard."""


# default node guard of the weight-system closure
MAX_TREE_NODES = 1_000_000
# end the messages of the node and product guards; the command line names its flags
_RAISE_MAX_NODES = "raise max_nodes"
_USE_DECOMPOSE = "use decompose_product"


class MalformedMultisetError(DomainError):
    """A weight multiset is not a union of whole orbits."""


def _check_int(value, name: str, least: int) -> None:
    """The int-argument contract: an ``int``, not a ``bool``, at least ``least``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise DomainError(f"{name} must be an int >= {least}, got {value!r}")


def _write_text(path, parts) -> None:
    """Write a text file from an iterable of parts.

    An ``OSError`` becomes a ``DomainError`` naming the path.
    """
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(parts)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc
