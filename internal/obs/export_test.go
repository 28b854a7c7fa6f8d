package obs

// EncodesDirectly reports whether appendJSONValue encodes v without the
// reflection fallback.
func EncodesDirectly(v any) bool {
	_, ok := appendJSONDirect(nil, v)
	return ok
}
