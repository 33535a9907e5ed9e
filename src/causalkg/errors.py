"""Exception types shared across the toolkit."""


class CausalKgError(Exception):
    """Base class for all toolkit errors."""


class InputError(CausalKgError, ValueError):
    """An input value is out of range or mistyped, or a file cannot be read or written."""


class GraphError(CausalKgError):
    """Structural problem while assembling or manipulating a graph."""


class SelfLoopError(GraphError):
    """A relation's head and tail reference the same entity."""


class DuplicateSpanTypeError(GraphError):
    """Two entities cover the exact same token span."""


class BadConfidenceError(GraphError):
    """A confidence score falls outside [0, 1]."""


class DanglingReferenceError(GraphError):
    """A relation or attribute references an unknown entity id."""


class DuplicateProvenanceError(GraphError):
    """Two graphs in a corpus share a provenance id."""


class SchemaError(CausalKgError):
    """Problem loading or applying a graph schema."""


class SchemaParseError(SchemaError):
    """Schema document is malformed."""


class UnknownTypeReferenceError(SchemaError):
    """A schema constraint references an undeclared type."""


class UnknownTypeError(SchemaError):
    """A graph uses a type the schema does not declare."""


class SchemaMismatchError(SchemaError):
    """Data and schema disagree (wrong schema for the operation)."""


class EncoderError(CausalKgError):
    """Problem producing token encodings."""


class EmptyInputError(EncoderError):
    """Encoder was given an empty token sequence."""


class OutOfVocabularyError(EncoderError):
    """File-backed encoder has no vector for a token."""


class DimensionMismatchError(CausalKgError):
    """Vector dimensions disagree."""


class ZeroVectorError(CausalKgError):
    """A vector that must be normalized is identically zero."""


class InventoryError(CausalKgError, ValueError):
    """Sense inventory is malformed: bad line, vector, id or taxonomy."""


class QueryError(CausalKgError, ValueError):
    """Path query document or node pattern is malformed."""


class DisjointTreesError(CausalKgError):
    """Two senses share no common ancestor in the taxonomy."""


class AlignmentError(CausalKgError):
    """Predicted and reference structures cannot be aligned."""


class NonFiniteGradientError(CausalKgError):
    """A gradient component is NaN or infinite."""
