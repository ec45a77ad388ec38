package httpapi

// Write is write, for the external test package's HTTP floor benchmark.
var Write = write
