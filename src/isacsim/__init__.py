"""3D non-stationary ISAC channel simulator.

Synthesizes mono-static sensing and bi-static communication channel
impulse responses from a ground-truth scene, localizes first- and
last-bounce scatterers with a particle filter, and validates the
reconstructed channel through delay/angular-spread statistics.
"""

__version__ = "0.1.0"

from .geometry import Vec3  # noqa: F401
