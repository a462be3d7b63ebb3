"""Exception hierarchy for graph construction, partitions, and generators."""

from __future__ import annotations


class SzegedCutError(Exception):
    """Base class for all errors raised by this package."""


class LoopEdgeError(SzegedCutError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(SzegedCutError):
    """The same vertex pair appears twice in an edge list."""


class VertexOutOfRangeError(SzegedCutError):
    """An edge references a vertex id outside 0..n-1."""


class DisconnectedError(SzegedCutError):
    """The operation requires a connected graph."""


class PartitionNotCoveringError(SzegedCutError):
    """An edge partition does not cover the graph's edge set."""


class MalformedPartitionError(SzegedCutError, ValueError):
    """A partition has an empty class or lists an edge in two classes."""


class InvalidWeightError(SzegedCutError, ValueError):
    """A weight is negative, inexact (float or bool), or misses the graph's shape."""


class InvalidCPartitionError(SzegedCutError):
    """A partition class splits a Theta*-class across classes."""


class UnsupportedKindError(SzegedCutError):
    """The requested index kind is not an `IndexKind`."""


class DisconnectedCellsError(SzegedCutError):
    """Hexagon cells do not form a connected region."""


class NotCatacondensedError(SzegedCutError):
    """A lattice corner belongs to three hexagon cells."""


class CellsNotTreeError(SzegedCutError):
    """The cell adjacency graph is not a tree."""


class NTooSmallError(SzegedCutError):
    """A size parameter (vertex count, generator size) is below its minimum."""


class ParseError(SzegedCutError):
    """A text input (edge list, hex spec, partition file) is malformed."""
