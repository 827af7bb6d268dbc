"""Differentiable multi-scale segmentation for small infrared targets.

Everything runs on a float64 numpy autodiff core: tensors, layers, the
network, losses, metrics, training, checkpointing and the CLI.
"""
