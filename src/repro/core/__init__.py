"""CC-Fuzz core: the genetic-algorithm fuzzing loop and its building blocks."""
