package httpapi

// Write is write, for the external test package's HTTP floor benchmark.
var Write = write

// ReadUpdate and DecodeWindow are readUpdate and its read window, for the
// external test package's differential and memory tests.
var ReadUpdate = readUpdate

const DecodeWindow = decodeWindow

// Atof is atof, for the external test package's differential test.
var Atof = atof
