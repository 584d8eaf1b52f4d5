"""Extreme multi-label text coder.

A self-contained numpy engine for assigning many labels to long documents:
a dilated residual convolutional text encoder, label representations from a
graph convolution over the label co-occurrence graph, per-document candidate
masks derived from auxiliary code terminologies, label-wise attention, and a
shared sigmoid classifier trained with multi-label cross-entropy.
"""

from .tensor import GradTape, Tensor

__version__ = "0.1.0"

__all__ = ["Tensor", "GradTape", "__version__"]
