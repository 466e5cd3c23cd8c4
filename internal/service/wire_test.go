package service_test

import (
	"encoding"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mpstream/internal/cluster"
	"mpstream/internal/service"
)

// TestClusterWireTypesMatchService ties the cluster's JobView, the
// subset of the service's job view the cluster consumes, to the
// service's View: every field of JobView must exist in View under the
// same JSON tag (name and options) with the same Go type. A cluster
// string field may stand for a service type defined on string, provided
// that type has no custom JSON or text encoding. (The request bodies and
// PointEvent need no such check: the service aliases the cluster's.)
func TestClusterWireTypesMatchService(t *testing.T) {
	pairs := []struct {
		twin, orig any
	}{
		{cluster.JobView{}, service.View{}},
	}
	for _, p := range pairs {
		twin, orig := reflect.TypeOf(p.twin), reflect.TypeOf(p.orig)
		byTag := map[string]reflect.StructField{}
		for i := 0; i < orig.NumField(); i++ {
			f := orig.Field(i)
			byTag[jsonName(f)] = f
		}
		for i := 0; i < twin.NumField(); i++ {
			f := twin.Field(i)
			name := jsonName(f)
			o, ok := byTag[name]
			switch {
			case !ok:
				t.Errorf("%v.%s: JSON field %q missing from %v", twin, f.Name, name, orig)
			case f.Tag.Get("json") != o.Tag.Get("json"):
				t.Errorf("%v.%s: tag %q, %v.%s has %q", twin, f.Name, f.Tag.Get("json"), orig, o.Name, o.Tag.Get("json"))
			case !sameWireType(f.Type, o.Type):
				t.Errorf("%v.%s: type %v, %v.%s has %v", twin, f.Name, f.Type, orig, o.Name, o.Type)
			}
		}
	}
}

// jsonName is a field's JSON key: the tag's name part, or the Go name.
func jsonName(f reflect.StructField) string {
	if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name != "" {
		return name
	}
	return f.Name
}

// sameWireType reports whether a twin field type encodes like the
// service's: the identical type, or the predeclared type a plain defined
// service type is built on.
func sameWireType(twin, orig reflect.Type) bool {
	if twin == orig {
		return true
	}
	ptr := reflect.PointerTo(orig) // its method set includes orig's
	return twin.PkgPath() == "" && twin.Name() == orig.Kind().String() &&
		!ptr.Implements(reflect.TypeFor[json.Marshaler]()) &&
		!ptr.Implements(reflect.TypeFor[encoding.TextMarshaler]())
}
