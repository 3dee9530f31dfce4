"""Former quadrature layer; it defines nothing.

The kernel constants in ``specfun`` are closed forms, so the package no
longer integrates anything numerically.  The module stays importable, and
``fracblow/__init__.py`` imports it, because tools that address the
package layer by layer, such as the span recorder in
``perfbench/spans.py`` (its ``LAYERS``), look ``fracblow.quad`` up by name.
"""
