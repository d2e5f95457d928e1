"""Driving micro-simulator with a deliberately flawed collision detector,
plus the fuzzing pipeline that hunts the collisions it silently drops."""
