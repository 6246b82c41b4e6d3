"""Sequential three-way group decision-making for double hierarchy
hesitant fuzzy linguistic evaluations.

The package root exports nothing: import each name from its module."""
