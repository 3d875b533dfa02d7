package live

// Options holds one field for each clause of the unset-option rule.
type Options struct {
	// Set is written by a caller: allowed.
	Set int
	// DefaultsOnly is filled only by withDefaults: an offender.
	DefaultsOnly int
	// TestsOnly is written only by a test: an offender.
	TestsOnly int
}

func (o Options) withDefaults() Options {
	if o.DefaultsOnly == 0 {
		o.DefaultsOnly = 4
	}
	return o
}

// Sum adds up the options after defaults.
func Sum(o Options) int {
	o = o.withDefaults()
	return o.Set + o.DefaultsOnly + o.TestsOnly
}
