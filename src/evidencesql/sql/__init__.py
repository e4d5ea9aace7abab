"""Read-only SQL subset: parsing, canonical rendering, guarding, execution."""
