"""Seeded superradiance of strong-field-ionized molecular nitrogen.

A small research toolkit covering the life of one 391-nm burst: the seed
pulse tips the collective Bloch vector of a freshly prepared two-level
medium, the tipped vector relaxes along the pendulum equation and radiates
a hyperbolic-secant burst, and the burst's width, delay, peak intensity and
energy scale with gas pressure through the emitter density.
"""

__version__ = "0.1.0"
