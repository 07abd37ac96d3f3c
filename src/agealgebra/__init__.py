"""Exact workbench for the graded algebra of finitely supported set
functions: convolution products, kernel witnesses, transversal bounds,
profile growth laws, and the word-coding leading-term machinery.

The package exports nothing itself; import from the submodules.
"""
