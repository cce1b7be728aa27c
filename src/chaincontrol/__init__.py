"""Chain control sets of linear control systems on low-dimensional Lie groups."""
