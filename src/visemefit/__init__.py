"""Viseme weight curves for blendshape face rigs.

Generates procedural curves from phoneme alignments, refines weights and
rigid head pose against landmark/image/flow observations with phoneme
guidance, and applies the result to mesh and bone assets.
"""
