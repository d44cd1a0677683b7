"""Core value types: messages, segmentations, analysis parameters, ground truth.

Boundaries are stored as interior cut offsets (never 0 or the payload
length), so refinement passes compose as pure cut-set transformations.
All types are immutable after construction and safe to share between
workers.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field, fields

import numpy as np


class ProtosegError(Exception):
    """Base for all errors raised by this package."""


class UsageError(ProtosegError):
    """Caller violated an operation's preconditions."""


class IngestionError(ProtosegError):
    """A trace, segmentation, or ground-truth file could not be ingested."""


class EstimationError(ProtosegError):
    """Too little data to estimate a clustering parameter."""


class DegenerateClusterError(ProtosegError):
    """A cluster's overlay retained no usable column."""


class NoSignalError(ProtosegError):
    """A cluster has no significant principal component to interpret."""


class SpecError(ProtosegError):
    """A synthetic protocol spec violates its invariants."""


def message_id(value) -> int:
    """value as a message id: a Python or numpy integer in the signed 64-bit range, not a bool."""
    try:
        if value.__class__ is not bool and -2**63 <= (mid := operator.index(value)) < 2**63:
            return mid
    except TypeError:
        pass
    raise UsageError(f"message id must be an integer in the signed 64-bit range: {value!r}")


def cut_offset(value) -> int:
    """value as a cut offset or a field bound: a Python or numpy integer, not a bool."""
    try:
        if value.__class__ is not bool:
            return operator.index(value)
    except TypeError:
        pass
    raise UsageError(f"cut offsets must be integers: {value!r}")


def refuse_non_numbers(settings) -> None:
    """Raise UsageError naming the first numeric field of settings that holds no number.

    settings is a dataclass instance; its numeric fields are those whose
    default is an int or a float, and each must hold a real number that
    is not a bool.  A bool is an int to Python, so True would pass as 1, and a
    string or None would fail later in a range comparison with a TypeError.
    """
    for f in fields(settings):
        value = getattr(settings, f.name)
        # a plain int or float passes at once: the ABC check costs more
        if type(f.default) not in (int, float) or type(value) in (int, float):
            continue
        if isinstance(value, (bool, np.bool_)):
            raise UsageError(f"{f.name} must be a number, not a bool")
        if not isinstance(value, numbers.Real):
            raise UsageError(f"{f.name} must be a number, not {value!r}")


def validate_cuts(cuts_by_id: dict, messages) -> None:
    """Each id of a {message id: checked cuts} map names one of messages, and its cuts fit it."""
    lengths = {m.id: len(m.payload) for m in messages}
    for mid, cuts in cuts_by_id.items():
        if mid not in lengths:
            raise UsageError(f"cuts reference unknown message id {mid}")
        if cuts and cuts[-1] >= lengths[mid]:
            raise UsageError(
                f"cut {cuts[-1]} out of range for message {mid} of length {lengths[mid]}")


@dataclass(frozen=True)
class Message:
    """One raw payload from a trace. `id`, an int64, is the index within the trace."""

    id: int
    payload: bytes
    source: str = ""

    def __post_init__(self):
        object.__setattr__(self, "id", message_id(self.id))
        if not isinstance(self.payload, bytes):
            raise UsageError(f"message {self.id} has a payload of {type(self.payload).__name__}, "
                             "not bytes")
        if len(self.payload) == 0:
            raise UsageError(f"message {self.id} has an empty payload ({self.source or 'unknown source'})")


@dataclass(frozen=True)
class Segmentation:
    """Interior boundary offsets of one message, strictly increasing.

    The implied segments are the byte ranges between consecutive elements
    of {0} | cuts | {len(payload)}.  0 and the payload length are implicit
    and never stored.
    """

    message_id: int
    cuts: tuple = ()

    def __post_init__(self):
        mid = message_id(self.message_id)
        try:  # a TypeError when cuts holds no sequence
            cuts = tuple(self.cuts)
            if not {int}.issuperset(map(type, cuts)):  # cut_offset keeps a plain int as it is
                cuts = tuple(map(cut_offset, cuts))
        except (TypeError, UsageError):
            raise UsageError(f"cuts of message {mid} must be integers: {self.cuts!r}") from None
        object.__setattr__(self, "message_id", mid)
        object.__setattr__(self, "cuts", cuts)
        # 0 < c1 < c2 < ... < 2**63, at C speed: no int64-sized payload has an offset beyond
        if not all(map(operator.lt, (0,) + cuts, cuts + (2**63,))):
            raise UsageError(
                f"cuts of message {mid} not strictly increasing interior offsets: {cuts}")

    def validate_against(self, msg: Message) -> None:
        if msg.id != self.message_id:
            raise UsageError(f"segmentation for message {self.message_id} applied to message {msg.id}")
        validate_cuts({self.message_id: self.cuts}, (msg,))


@dataclass(frozen=True)
class AnalysisParams:
    """Thresholds of the variance analysis with their empirically determined defaults.

    scree_min        eigenvalue cap on the significance threshold
    max_principals   absolute cap on significant principal components
    principal_ratio  relative cap on significant PCs (fraction of dimensions)
    length_ratio     max tolerated length spread before a cluster is split by length
    min_cluster      smallest cluster worth analysing
    contrib_floor    loading magnitude that counts as a relevant contribution (rule A)
    delta_min        relative loading jump that marks a boundary (rules A and B)
    near_zero        loading magnitude treated as quiet (rule B)
    quiet_len        bytes of quiet required before a variance surge (rule B)
    notable          smallest loading that still counts as a contribution (rule B)
    """

    scree_min: int = 10
    max_principals: int = 4
    principal_ratio: float = 0.5
    length_ratio: float = 0.5
    min_cluster: int = 6
    contrib_floor: float = 0.1
    delta_min: float = 0.98
    near_zero: float = 0.05
    quiet_len: int = 4
    notable: float = 0.005

    def __post_init__(self):
        refuse_non_numbers(self)
        for name in ("scree_min", "max_principals", "min_cluster", "quiet_len"):
            if not (isinstance(getattr(self, name), int) and getattr(self, name) > 0):
                raise UsageError(f"{name} must be a positive integer")
        if self.min_cluster < 2:  # a one-member group has nothing to overlay
            raise UsageError(f"min_cluster must be at least 2, got {self.min_cluster}")
        for name in ("principal_ratio", "length_ratio", "contrib_floor",
                     "delta_min", "near_zero", "notable"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise UsageError(f"{name} must lie in (0, 1)")


@dataclass(frozen=True)
class GroundTruth:
    """True interior boundaries per message id.

    Each entry is checked as `Segmentation` checks its id and its cuts.
    """

    cuts: dict = field(default_factory=dict)

    def __post_init__(self):
        entries = [Segmentation(k, v) for k, v in self.cuts.items()]
        object.__setattr__(self, "cuts", {s.message_id: s.cuts for s in entries})

    def validate_against(self, messages) -> None:
        validate_cuts(self.cuts, messages)


def segments_of(seg: Segmentation, msg: Message) -> list:
    """The bytes of the len(cuts)+1 segments `seg` splits `msg` into, in order."""
    seg.validate_against(msg)
    bounds = (0,) + seg.cuts + (len(msg.payload),)
    return list(map(msg.payload.__getitem__, map(slice, bounds[:-1], bounds[1:])))
