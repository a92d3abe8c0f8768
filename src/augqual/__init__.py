"""Quality-aware qualification pipeline for augmented multimodal feature corpora.

Forge synthetic negatives, train a quality scorer over pooled modality
features, map scores to sample weights, and run weighted fine-tuning of a
small surrogate task head - all deterministic from explicit seeds.

The package's error types live here, where importing them loads nothing
else: the command line catches them before it loads numpy or any stage
module, and ``util`` re-exports them for the stage modules.
"""

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AugqualError",
    "ValidationError",
    "ChecksumError",
    "PipelineError",
]


class AugqualError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AugqualError):
    """Bad inputs: shapes, ranges, config values, malformed files."""


class ChecksumError(AugqualError):
    """An artifact does not match the inputs it claims to be derived from."""


class PipelineError(AugqualError):
    """A pipeline stage failed; message carries the stage name and cause."""
