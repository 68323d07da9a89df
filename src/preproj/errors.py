"""Exception types shared across the engine."""


class PreprojError(Exception):
    """Base class for all engine errors."""


class InputError(PreprojError):
    """Bad arguments: shape mismatch, unknown type, violated precondition."""


class FieldSizeError(PreprojError):
    """The prime is too small for a computation that needs p to dominate a
    dimension, or too large for exact int64 products."""


class EnumerationError(PreprojError):
    """A closure pass added no module, yet the completeness certificate failed."""


class StructureError(PreprojError):
    """A runtime check contradicted the expected module-theoretic structure."""


class NonSplitResidueError(StructureError):
    """An unsplittable factor has End/rad of dimension > 1."""


class IntegrityError(PreprojError):
    """Internal consistency check failed (multiplication table, coresolution kernel)."""


class FormatError(PreprojError):
    """Serialized file has the wrong magic, version, or field modulus."""
