package siemens

import (
	"repro/internal/obda/mapping"
	"repro/internal/relation"
	"repro/internal/sql"
)

// Mappings builds the GAV mappings of the deployment: each ontological
// term is mapped to queries over both source schemas, which is exactly
// the situation motivating OBSSDI — "semantically the same but
// syntactically different" sources hidden behind one vocabulary.
func Mappings() *mapping.Set {
	var (
		turbineT  = mapping.MustParseTemplate(DataNS + "turbine/{tid}")
		turbineTB = mapping.MustParseTemplate(DataNS + "turbine/{unit_id}")
		assemblyT = mapping.MustParseTemplate(DataNS + "assembly/{aid}")
		assemblyB = mapping.MustParseTemplate(DataNS + "assembly/{part_id}")
		sensorT   = mapping.MustParseTemplate(DataNS + "sensor/{sid}")
		sensorB   = mapping.MustParseTemplate(DataNS + "sensor/{chan_id}")
		sensorSA  = mapping.MustParseTemplate(DataNS + "sensor/{sid}")
		sensorSB  = mapping.MustParseTemplate(DataNS + "sensor/{chan_nr}")
	)
	kindFilter := func(col, kind string) sql.Expr {
		return sql.Bin("=", sql.Col(col), sql.Lit(relation.String_(kind)))
	}

	// Inclusion dependencies of the static schemas (every sensor belongs
	// to an assembly, every assembly to a turbine; likewise on source B).
	// Declared on each mapping reading the child table, so a branch that
	// pins the FK columns to a parent the catalog lacks is dropped as
	// empty.
	fkSensorsA := []mapping.ForeignKey{{Columns: []string{"aid"},
		RefTable: "a_assemblies", RefColumns: []string{"aid"}}}
	fkChannelsB := []mapping.ForeignKey{{Columns: []string{"part_id"},
		RefTable: "b_parts", RefColumns: []string{"part_id"}}}
	fkAssembliesA := []mapping.ForeignKey{{Columns: []string{"tid"},
		RefTable: "a_turbines", RefColumns: []string{"tid"}}}
	fkPartsB := []mapping.ForeignKey{{Columns: []string{"unit_id"},
		RefTable: "b_units", RefColumns: []string{"unit_id"}}}

	ms := []mapping.Mapping{
		// Turbine from both sources.
		{ID: "turbineA", Pred: NS + "Turbine", IsClass: true,
			Subject: turbineT, Source: mapping.SourceRef{Table: "a_turbines"},
			KeyColumns: []string{"tid"}},
		{ID: "turbineB", Pred: NS + "Turbine", IsClass: true,
			Subject: turbineTB, Source: mapping.SourceRef{Table: "b_units"},
			KeyColumns: []string{"unit_id"}},

		// Assembly from both sources.
		{ID: "assemblyA", Pred: NS + "Assembly", IsClass: true,
			Subject: assemblyT, Source: mapping.SourceRef{Table: "a_assemblies"},
			KeyColumns: []string{"aid"}, FKs: fkAssembliesA},
		{ID: "assemblyB", Pred: NS + "Assembly", IsClass: true,
			Subject: assemblyB, Source: mapping.SourceRef{Table: "b_parts"},
			KeyColumns: []string{"part_id"}, FKs: fkPartsB},

		// Sensor from both sources.
		{ID: "sensorA", Pred: NS + "Sensor", IsClass: true,
			Subject: sensorT, Source: mapping.SourceRef{Table: "a_sensors"},
			KeyColumns: []string{"sid"}, FKs: fkSensorsA},
		{ID: "sensorB", Pred: NS + "Sensor", IsClass: true,
			Subject: sensorB, Source: mapping.SourceRef{Table: "b_channels"},
			KeyColumns: []string{"chan_id"}, FKs: fkChannelsB},

		// inAssembly: assembly -> sensor (the paper's Figure 1 direction).
		{ID: "inAssemblyA", Pred: NS + "inAssembly",
			Subject: mapping.MustParseTemplate(DataNS + "assembly/{aid}"),
			Object:  sensorT,
			Source:  mapping.SourceRef{Table: "a_sensors"}, KeyColumns: []string{"sid"},
			FKs: fkSensorsA},
		{ID: "inAssemblyB", Pred: NS + "inAssembly",
			Subject: mapping.MustParseTemplate(DataNS + "assembly/{part_id}"),
			Object:  sensorB,
			Source:  mapping.SourceRef{Table: "b_channels"}, KeyColumns: []string{"chan_id"},
			FKs: fkChannelsB},

		// inTurbine: assembly -> turbine.
		{ID: "inTurbineA", Pred: NS + "inTurbine",
			Subject: assemblyT, Object: turbineT,
			Source: mapping.SourceRef{Table: "a_assemblies"}, KeyColumns: []string{"aid"},
			FKs: fkAssembliesA},
		{ID: "inTurbineB", Pred: NS + "inTurbine",
			Subject: assemblyB, Object: mapping.MustParseTemplate(DataNS + "turbine/{unit_id}"),
			Source: mapping.SourceRef{Table: "b_parts"}, KeyColumns: []string{"part_id"},
			FKs: fkPartsB},

		// Model data property.
		{ID: "modelA", Pred: NS + "hasModel",
			Subject: turbineT, Object: mapping.MustParseTemplate("{model}"), ObjectIsData: true,
			Source: mapping.SourceRef{Table: "a_turbines"}, KeyColumns: []string{"tid"}},
		{ID: "modelB", Pred: NS + "hasModel",
			Subject: turbineTB, Object: mapping.MustParseTemplate("{unit_model}"), ObjectIsData: true,
			Source: mapping.SourceRef{Table: "b_units"}, KeyColumns: []string{"unit_id"}},

		// Streaming measurement value from both streams. Each stream's
		// sensor id column is declared as an inclusion dependency into its
		// source's static sensor table: msmt_a only ever carries source-A
		// sensor ids and msmt_b only source-B channel numbers (streamgen
		// routes by the sensor's source). Constraint pruning probes these
		// at registration time to drop the cross-source fleet members.
		{ID: "valueA", Pred: NS + "hasValue",
			Subject: sensorSA, Object: mapping.MustParseTemplate("{val}"), ObjectIsData: true,
			Source: mapping.SourceRef{Table: "msmt_a", IsStream: true},
			FKs: []mapping.ForeignKey{{Columns: []string{"sid"},
				RefTable: "a_sensors", RefColumns: []string{"sid"}}}},
		{ID: "valueB", Pred: NS + "hasValue",
			Subject: sensorSB, Object: mapping.MustParseTemplate("{reading}"), ObjectIsData: true,
			Source: mapping.SourceRef{Table: "msmt_b", IsStream: true},
			FKs: []mapping.ForeignKey{{Columns: []string{"chan_nr"},
				RefTable: "b_channels", RefColumns: []string{"chan_id"}}}},

		// Failure flag from both streams.
		{ID: "failureA", Pred: NS + "showsFailure",
			Subject: sensorSA, Object: mapping.MustParseTemplate("{fail}"), ObjectIsData: true,
			Source: mapping.SourceRef{Table: "msmt_a", IsStream: true,
				Where: sql.Bin("=", sql.Col("fail"), sql.Lit(relation.Int(1)))},
			FKs: []mapping.ForeignKey{{Columns: []string{"sid"},
				RefTable: "a_sensors", RefColumns: []string{"sid"}}}},
		{ID: "failureB", Pred: NS + "showsFailure",
			Subject: sensorSB, Object: mapping.MustParseTemplate("{status}"), ObjectIsData: true,
			Source: mapping.SourceRef{Table: "msmt_b", IsStream: true,
				Where: sql.Bin("=", sql.Col("status"), sql.Lit(relation.Int(1)))},
			FKs: []mapping.ForeignKey{{Columns: []string{"chan_nr"},
				RefTable: "b_channels", RefColumns: []string{"chan_id"}}}},
	}

	// Sensor-kind subclasses from both sources, via kind filters.
	kinds := map[string]string{
		"temperature": "TemperatureSensor",
		"pressure":    "PressureSensor",
		"vibration":   "VibrationSensor",
		"flow":        "FlowSensor",
		"speed":       "SpeedSensor",
	}
	for kind, class := range kinds {
		ms = append(ms,
			mapping.Mapping{
				ID: "kindA:" + kind, Pred: NS + class, IsClass: true,
				Subject: sensorT,
				Source: mapping.SourceRef{Table: "a_sensors",
					Where: kindFilter("kind", kind)},
				KeyColumns: []string{"sid"}, FKs: fkSensorsA,
			},
			mapping.Mapping{
				ID: "kindB:" + kind, Pred: NS + class, IsClass: true,
				Subject: sensorB,
				Source: mapping.SourceRef{Table: "b_channels",
					Where: kindFilter("chan_type", kind)},
				KeyColumns: []string{"chan_id"}, FKs: fkChannelsB,
			},
		)
	}
	return mapping.MustNewSet(ms...)
}
